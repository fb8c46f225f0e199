(* The structural fold behind every program key. See the interface for
   the byte format. *)

let rec digits b n =
  if n >= 10 then digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let decimal b n = if n >= 0 then digits b n else Buffer.add_string b (string_of_int n)

let str b s =
  decimal b (String.length s);
  Buffer.add_char b ':';
  Buffer.add_string b s

let int b n =
  Buffer.add_char b '#';
  decimal b n

let opt_str b = function None -> Buffer.add_char b '-' | Some s -> str b s

let binop = function
  | Ast.Add -> 'a'
  | Ast.Sub -> 's'
  | Ast.Mul -> 'm'
  | Ast.Div -> 'd'
  | Ast.Mod -> 'r'
  | Ast.Eq -> 'e'
  | Ast.Ne -> 'n'
  | Ast.Lt -> 'l'
  | Ast.Le -> 'L'
  | Ast.Gt -> 'g'
  | Ast.Ge -> 'G'
  | Ast.And -> '&'
  | Ast.Or -> '|'

let rec expr b = function
  | Ast.Int n ->
    Buffer.add_char b 'I';
    int b n
  | Ast.Bool v ->
    Buffer.add_char b 'B';
    Buffer.add_char b (if v then 't' else 'f')
  | Ast.Var x ->
    Buffer.add_char b 'V';
    str b x
  | Ast.Index (a, i) ->
    Buffer.add_char b 'X';
    str b a;
    expr b i
  | Ast.Unop (op, e) ->
    Buffer.add_char b 'U';
    Buffer.add_char b (match op with Ast.Neg -> '-' | Ast.Not -> '!');
    expr b e
  | Ast.Binop (op, e1, e2) ->
    Buffer.add_char b 'O';
    Buffer.add_char b (binop op);
    expr b e1;
    expr b e2

let rec stmt b (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Skip -> Buffer.add_char b 'k'
  | Ast.Assign (x, e) ->
    Buffer.add_char b '=';
    str b x;
    expr b e
  | Ast.Declassify (x, e, c) ->
    Buffer.add_char b 'D';
    str b x;
    expr b e;
    str b c
  | Ast.Store (a, i, e) ->
    Buffer.add_char b 'A';
    str b a;
    expr b i;
    expr b e
  | Ast.If (e, s1, s2) ->
    Buffer.add_char b 'i';
    expr b e;
    stmt b s1;
    stmt b s2
  | Ast.While (e, body) ->
    Buffer.add_char b 'w';
    expr b e;
    stmt b body
  | Ast.Seq ss ->
    Buffer.add_char b ';';
    int b (List.length ss);
    List.iter (stmt b) ss
  | Ast.Cobegin ss ->
    Buffer.add_char b 'c';
    int b (List.length ss);
    List.iter (stmt b) ss
  | Ast.Wait x ->
    Buffer.add_char b 'W';
    str b x
  | Ast.Signal x ->
    Buffer.add_char b 'S';
    str b x
  | Ast.Send (ch, e) ->
    Buffer.add_char b '>';
    str b ch;
    expr b e
  | Ast.Recv (ch, x) ->
    Buffer.add_char b '<';
    str b ch;
    str b x

let decl b = function
  | Ast.Var_decl { name; cls } ->
    Buffer.add_char b 'v';
    str b name;
    opt_str b cls
  | Ast.Arr_decl { name; size; cls } ->
    Buffer.add_char b 'y';
    str b name;
    int b size;
    opt_str b cls
  | Ast.Sem_decl { name; init; cls } ->
    Buffer.add_char b 'z';
    str b name;
    int b init;
    opt_str b cls
  | Ast.Chan_decl { name; cap; cls } ->
    Buffer.add_char b 'q';
    str b name;
    int b cap;
    opt_str b cls

let entry b (e : Ast.iface_entry) =
  str b e.Ast.iv_name;
  str b e.Ast.iv_class

let module_unit b (m : Ast.module_unit) =
  str b m.Ast.iface.Ast.m_name;
  int b (List.length m.Ast.iface.Ast.provides);
  List.iter (entry b) m.Ast.iface.Ast.provides;
  int b (List.length m.Ast.iface.Ast.requires);
  List.iter (entry b) m.Ast.iface.Ast.requires;
  int b (List.length m.Ast.m_decls);
  List.iter (decl b) m.Ast.m_decls;
  stmt b m.Ast.m_body

let program b (p : Ast.program) =
  int b (List.length p.Ast.decls);
  List.iter (decl b) p.Ast.decls;
  stmt b p.Ast.body

let linked b (l : Ast.linked) =
  int b (List.length l.Ast.modules);
  List.iter (module_unit b) l.Ast.modules;
  match l.Ast.main with
  | None -> Buffer.add_char b '-'
  | Some p ->
    Buffer.add_char b 'P';
    program b p

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let module_digest m =
  let b = Buffer.create 1024 in
  module_unit b m;
  digest b

let linked_digest l =
  let b = Buffer.create 4096 in
  linked b l;
  digest b
