(* Pretty-printer. Precedence levels mirror the parser so that output
   re-parses to the same AST (checked by a round-trip property test).
   The layout rule is stated in the interface. *)

let margin = 78

let max_indent = 68

exception Too_wide

(* Output so far, the buffer offset where the current line starts, and
   whether a box is being tried on one line: then every break is a space
   and reaching the margin abandons the try. *)
type out = { buf : Buffer.t; mutable line_start : int; mutable flat : bool }

let column o = Buffer.length o.buf - o.line_start

let text o s =
  Buffer.add_string o.buf s;
  if o.flat && column o >= margin then raise_notrace Too_wide

(* An integer, without [string_of_int]'s allocation and format parsing:
   they cost a printed program about a quarter of its time. *)
let int o n =
  Key.decimal o.buf n;
  if o.flat && column o >= margin then raise_notrace Too_wide

let spaces = String.make max_indent ' '

let newline o indent =
  Buffer.add_char o.buf '\n';
  o.line_start <- Buffer.length o.buf;
  Buffer.add_substring o.buf spaces 0 (min max_indent indent)

(* A one-column break in an hv box whose broken lines start at column
   [indent] (capped at [max_indent]). *)
let break o indent = if o.flat then text o " " else newline o indent

(* The hv box of [f o c x], opened at the current column [c]: printed
   flat if that fits strictly left of the margin, else with every one of
   its own breaks starting a new line. Inside a box printed flat, every
   box is flat. *)
let hv o f x =
  let c = column o in
  if o.flat then f o c x
  else begin
    let mark = Buffer.length o.buf in
    o.flat <- true;
    match f o c x with
    | () -> o.flat <- false
    | exception Too_wide ->
      Buffer.truncate o.buf mark;
      o.flat <- false;
      f o c x
  end

(* ------------------------------------------------------------------ *)
(* Expressions *)

(* An operator with the spaces around it. *)
let binop_symbol = function
  | Ast.Add -> " + "
  | Ast.Sub -> " - "
  | Ast.Mul -> " * "
  | Ast.Div -> " / "
  | Ast.Mod -> " % "
  | Ast.Eq -> " = "
  | Ast.Ne -> " <> "
  | Ast.Lt -> " < "
  | Ast.Le -> " <= "
  | Ast.Gt -> " > "
  | Ast.Ge -> " >= "
  | Ast.And -> " and "
  | Ast.Or -> " or "

(* Precedence of a construct, and the levels required of its operands.
   [or] and [and] are parsed right-associatively, [+ - * / %] left-
   associatively; relations do not associate. *)
let level = function
  | Ast.Binop (Ast.Or, _, _) -> 1
  | Ast.Binop (Ast.And, _, _) -> 2
  | Ast.Unop (Ast.Not, _) -> 3
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) -> 4
  | Ast.Binop ((Ast.Add | Ast.Sub), _, _) -> 5
  | Ast.Binop ((Ast.Mul | Ast.Div | Ast.Mod), _, _) -> 6
  | Ast.Unop (Ast.Neg, _) -> 7
  | Ast.Int _ | Ast.Bool _ | Ast.Var _ | Ast.Index _ -> 8

let rec expr_prec o min_level e =
  let this = level e in
  let wrap = this < min_level in
  if wrap then text o "(";
  (match e with
  | Ast.Int n -> int o n
  | Ast.Bool b -> text o (if b then "true" else "false")
  | Ast.Var x -> text o x
  | Ast.Index (a, i) ->
    text o a;
    text o "[";
    expr_prec o 0 i;
    text o "]"
  | Ast.Unop (Ast.Neg, operand) ->
    (* Parenthesise a nested negation: "--x" would lex as a comment. *)
    text o "-";
    expr_prec o (match operand with Ast.Unop (Ast.Neg, _) -> 9 | _ -> 7) operand
  | Ast.Unop (Ast.Not, operand) ->
    text o "not ";
    expr_prec o 3 operand
  | Ast.Binop (((Ast.Or | Ast.And) as op), a, b) -> binop o (this + 1) op this a b
  | Ast.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) ->
    binop o 5 op 5 a b
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b) ->
    binop o this op (this + 1) a b);
  if wrap then text o ")"

(* [a op b], its operands printed at levels [left] and [right]. *)
and binop o left op right a b =
  expr_prec o left a;
  text o (binop_symbol op);
  expr_prec o right b

let expr o e = expr_prec o 0 e

(* ------------------------------------------------------------------ *)
(* Statements *)

(* [stmt o s] prints [s] from the current column. Assignments and
   compound statements are each one hv box. *)
let rec stmt o (s : Ast.stmt) =
  match s.node with
  | Ast.Skip | Ast.Wait _ | Ast.Signal _ | Ast.Send _ | Ast.Recv _ -> stmt_at o (column o) s
  | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.If _ | Ast.While _ | Ast.Seq _
  | Ast.Cobegin _ ->
    hv o stmt_at s

(* [s]'s text with its box opened at column [c]: an assignment's box
   has offset 2, the others offset 0. *)
and stmt_at o c (s : Ast.stmt) =
  match s.node with
  | Ast.Skip -> text o "skip"
  | Ast.Wait sem ->
    text o "wait(";
    text o sem;
    text o ")"
  | Ast.Signal sem ->
    text o "signal(";
    text o sem;
    text o ")"
  | Ast.Send (chan, e) ->
    text o "send(";
    text o chan;
    text o ", ";
    expr o e;
    text o ")"
  | Ast.Recv (chan, x) ->
    text o "recv(";
    text o chan;
    text o ", ";
    text o x;
    text o ")"
  | Ast.Assign (x, e) ->
    text o x;
    text o " :=";
    break o (c + 2);
    expr o e
  | Ast.Declassify (x, e, cls) ->
    text o x;
    text o " :=";
    break o (c + 2);
    text o "declassify ";
    expr o e;
    text o " to ";
    text o cls
  | Ast.Store (a, i, e) ->
    text o a;
    text o "[";
    expr o i;
    text o "] :=";
    break o (c + 2);
    expr o e
  | Ast.If (_, _, else_) ->
    hv o arm s;
    break o c;
    (match else_.node with
    | Ast.Skip -> ()
    | _ ->
      hv o else_arm else_;
      break o c);
    text o "fi"
  | Ast.While _ ->
    hv o arm s;
    break o c;
    text o "od"
  | Ast.Seq stmts ->
    text o "begin";
    break o (c + 2);
    hv o sequence stmts;
    break o c;
    text o "end"
  | Ast.Cobegin branches ->
    text o "cobegin";
    break o (c + 2);
    hv o parallel branches;
    break o c;
    text o "coend"

(* The first arm of an [if] or [while], "if e then@ s" or "while e do@
   s", in a box of offset 2. *)
and arm o c (s : Ast.stmt) =
  match s.node with
  | Ast.If (cond, then_, _) ->
    text o "if ";
    expr o cond;
    text o " then";
    break o (c + 2);
    stmt o then_
  | Ast.While (cond, body) ->
    text o "while ";
    expr o cond;
    text o " do";
    break o (c + 2);
    stmt o body
  | _ -> invalid_arg "Pretty.arm"

(* "else@ s", in a box of offset 2. *)
and else_arm o c else_ =
  text o "else";
  break o (c + 2);
  stmt o else_

(* A block's statements, "s1;@ s2", in a box of offset 0. *)
and sequence o c = function
  | [] -> ()
  | first :: rest ->
    stmt o first;
    sequence_rest o c rest

and sequence_rest o c = function
  | [] -> ()
  | s :: rest ->
    text o ";";
    break o c;
    stmt o s;
    sequence_rest o c rest

(* A cobegin's branches, "s1@ ||@ s2", in a box of offset 0. *)
and parallel o c = function
  | [] -> ()
  | first :: rest ->
    stmt o first;
    parallel_rest o c rest

and parallel_rest o c = function
  | [] -> ()
  | s :: rest ->
    break o c;
    text o "||";
    break o c;
    stmt o s;
    parallel_rest o c rest

(* ------------------------------------------------------------------ *)
(* Declarations, programs and linked units: vertical layouts, whose
   breaks always start new lines. *)

let class_suffix o = function
  | None -> ()
  | Some c ->
    text o " class ";
    text o c

let decl o = function
  | Ast.Arr_decl { name; size; cls } ->
    text o name;
    text o " : array(";
    int o size;
    text o ")";
    class_suffix o cls;
    text o ";"
  | Ast.Var_decl { name; cls } ->
    text o name;
    text o " : integer";
    class_suffix o cls;
    text o ";"
  | Ast.Sem_decl { name; init; cls } ->
    text o name;
    text o " : semaphore initially(";
    int o init;
    text o ")";
    class_suffix o cls;
    text o ";"
  | Ast.Chan_decl { name; cap; cls } ->
    text o name;
    text o " : channel(";
    int o cap;
    text o ")";
    class_suffix o cls;
    text o ";"

(* "var" and then each declaration on its own line, [2] further in. *)
let decls o c = function
  | [] -> ()
  | first :: rest ->
    text o "var";
    newline o (c + 2);
    let inner = column o in
    decl o first;
    List.iter
      (fun d ->
        newline o inner;
        decl o d)
      rest;
    newline o c

let program o (p : Ast.program) =
  decls o (column o) p.decls;
  stmt o p.body

(* "provides (x : class <= k,@ ...)", a box of offset 2. *)
let iface_clause o c (kw, rel, entries) =
  text o kw;
  text o " (";
  List.iteri
    (fun i (e : Ast.iface_entry) ->
      if i > 0 then begin
        text o ",";
        break o (c + 2)
      end;
      text o e.iv_name;
      text o " : class ";
      text o rel;
      text o " ";
      text o e.iv_class)
    entries;
  text o ")"

(* "module m@ provides (...)@ requires (...)", a box of offset 2. *)
let header o c (iface : Ast.iface) =
  text o "module ";
  text o iface.m_name;
  List.iter
    (fun ((_, _, entries) as clause) ->
      if entries <> [] then begin
        break o (c + 2);
        hv o iface_clause clause
      end)
    [ ("provides", "<=", iface.provides); ("requires", ">=", iface.requires) ]

let module_unit o (m : Ast.module_unit) =
  let c = column o in
  hv o header m.iface;
  newline o (c + 2);
  program o (Ast.module_program m);
  newline o c;
  text o "end"

let linked o (l : Ast.linked) =
  let c = column o in
  match (l.modules, l.main) with
  | [], None -> text o "skip"
  | modules, main ->
    List.iteri
      (fun i m ->
        if i > 0 then begin
          newline o c;
          newline o c
        end;
        module_unit o m)
      modules;
    Option.iter
      (fun p ->
        if modules <> [] then begin
          newline o c;
          newline o c
        end;
        program o p)
      main

(* ------------------------------------------------------------------ *)
(* Entry points: every form is rendered at column 0. *)

let render f x =
  let o = { buf = Buffer.create 256; line_start = 0; flat = false } in
  f o x;
  Buffer.contents o.buf

let expr_to_string e = render expr e

let stmt_to_string s = render stmt s

let program_to_string p = render program p

let linked_to_string l = render linked l

let module_to_string m = render module_unit m

let decl_to_string d = render decl d

let pp_expr ppf e = Format.pp_print_string ppf (expr_to_string e)

let pp_stmt ppf s = Format.pp_print_string ppf (stmt_to_string s)

let pp_decl ppf d = Format.pp_print_string ppf (decl_to_string d)

let pp_program ppf p = Format.pp_print_string ppf (program_to_string p)

let pp_module_unit ppf m = Format.pp_print_string ppf (module_to_string m)

let pp_linked ppf l = Format.pp_print_string ppf (linked_to_string l)
