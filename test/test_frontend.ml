(* The front end's outputs, pinned. Every request lexes and parses its
   program and folds the tree into its job key, and the printed form is
   what version-1 certificate program digests hash, so none of those
   bytes may move when the lexer, parser, printer or fold change.
   One MD5 covers, on a couple of thousand generated programs across
   generator configs, identifier lengths and nesting depths: the printed
   program and body, the parsed AST with every span, the token list, job
   digests under two schemes, and the error (message and position) of
   truncated and byte-flipped texts; plus linked units built from
   generated module bodies. The boundary tests beside it pin the layout
   rule at the margin and at the indentation cap. *)

module Lattice = Ifc_lattice.Lattice
module Builtin = Ifc_lattice.Builtin
module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Gen = Ifc_lang.Gen
module Lexer = Ifc_lang.Lexer
module Token = Ifc_lang.Token
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Job = Ifc_pipeline.Job

let scheme name =
  match Builtin.find name with Some l -> l | None -> Alcotest.failf "no scheme %s" name

let pick rng xs = List.nth xs (Prng.int rng (List.length xs))

(* ------------------------------------------------------------------ *)
(* Inputs *)

let ident_start = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"

let ident_char = ident_start ^ "0123456789"

let is_keyword s = List.mem_assoc (String.lowercase_ascii s) Token.keywords

(* [n] distinct identifiers, none a keyword in any case, each of length
   1 to [max_len]. *)
let fresh_names rng ~max_len n =
  let seen = Hashtbl.create 16 in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let len = 1 + Prng.int rng max_len in
      let name =
        String.init len (fun i ->
            let pool = if i = 0 then ident_start else ident_char in
            pool.[Prng.int rng (String.length pool)])
      in
      if Hashtbl.mem seen name || is_keyword name then draw acc k
      else begin
        Hashtbl.add seen name ();
        draw (name :: acc) (k - 1)
      end
  in
  draw [] n

let base_configs = [ Gen.default; Gen.with_arrays; Gen.with_channels; Gen.sequential ]

(* A base config with its pools renamed to identifiers of up to
   [max_len] characters, and a random depth bound and block width. *)
let config rng base =
  let max_len = pick rng [ 1; 2; 3; 5; 8; 13; 21; 40; 90 ] in
  let pools = [ base.Gen.vars; base.sems; base.arrays; base.chans ] in
  let names = fresh_names rng ~max_len (List.length (List.concat pools)) in
  let take pool names =
    (List.filteri (fun i _ -> i < List.length pool) names,
     List.filteri (fun i _ -> i >= List.length pool) names)
  in
  let vars, names = take base.vars names in
  let sems, names = take base.sems names in
  let arrays, names = take base.arrays names in
  let chans, _ = take base.chans names in
  {
    base with
    Gen.vars;
    sems;
    arrays;
    chans;
    max_depth = 1 + Prng.int rng 40;
    max_branch = 2 + Prng.int rng 3;
  }

(* About one assignment in four becomes a [declassify]. *)
let rec with_declassify rng classes (s : Ast.stmt) =
  let sub = with_declassify rng classes in
  let node =
    match s.node with
    | Ast.Assign (x, e) when Prng.int rng 4 = 0 -> Ast.Declassify (x, e, pick rng classes)
    | Ast.If (c, a, b) -> Ast.If (c, sub a, sub b)
    | Ast.While (c, b) -> Ast.While (c, sub b)
    | Ast.Seq ss -> Ast.Seq (List.map sub ss)
    | Ast.Cobegin ss -> Ast.Cobegin (List.map sub ss)
    | n -> n
  in
  { s with node }

(* About half the declarations name a class. *)
let with_classes rng classes decls =
  List.map
    (fun d ->
      if Prng.bool rng then d
      else
        let cls = Some (pick rng classes) in
        match d with
        | Ast.Var_decl v -> Ast.Var_decl { v with cls }
        | Ast.Arr_decl a -> Ast.Arr_decl { a with cls }
        | Ast.Sem_decl s -> Ast.Sem_decl { s with cls }
        | Ast.Chan_decl c -> Ast.Chan_decl { c with cls })
    decls

let gen_program rng base =
  let cfg = config rng base in
  let classes = fresh_names rng ~max_len:(pick rng [ 3; 12; 30 ]) 3 in
  let p = Gen.program rng cfg ~size:(1 + Prng.int rng 60) in
  {
    Ast.decls = with_classes rng classes p.Ast.decls;
    body = with_declassify rng classes p.Ast.body;
  }

(* ------------------------------------------------------------------ *)
(* Dumps *)

let span_s (s : Loc.span) =
  Printf.sprintf "%d:%d-%d:%d" s.start.line s.start.col s.stop.line s.stop.col

let rec dump_expr b = function
  | Ast.Int n -> Printf.bprintf b "%d" n
  | Ast.Bool v -> Printf.bprintf b "%b" v
  | Ast.Var x -> Printf.bprintf b "$%s" x
  | Ast.Index (a, i) ->
    Printf.bprintf b "%s[" a;
    dump_expr b i;
    Buffer.add_char b ']'
  | Ast.Unop (op, e) ->
    Printf.bprintf b "(%s " (match op with Ast.Neg -> "neg" | Ast.Not -> "not");
    dump_expr b e;
    Buffer.add_char b ')'
  | Ast.Binop (op, x, y) ->
    Printf.bprintf b "(%s " (Pretty.expr_to_string (Ast.Binop (op, Ast.Int 0, Ast.Int 0)));
    dump_expr b x;
    Buffer.add_char b ' ';
    dump_expr b y;
    Buffer.add_char b ')'

let rec dump_stmt b (s : Ast.stmt) =
  Printf.bprintf b "{%s " (span_s s.span);
  (match s.node with
  | Ast.Skip -> Buffer.add_string b "skip"
  | Ast.Assign (x, e) ->
    Printf.bprintf b "%s:=" x;
    dump_expr b e
  | Ast.Declassify (x, e, c) ->
    Printf.bprintf b "%s:=declassify(%s) " x c;
    dump_expr b e
  | Ast.Store (a, i, e) ->
    Printf.bprintf b "%s[" a;
    dump_expr b i;
    Buffer.add_string b "]:=";
    dump_expr b e
  | Ast.If (c, t, f) ->
    Buffer.add_string b "if ";
    dump_expr b c;
    dump_stmt b t;
    dump_stmt b f
  | Ast.While (c, body) ->
    Buffer.add_string b "while ";
    dump_expr b c;
    dump_stmt b body
  | Ast.Seq ss ->
    Buffer.add_string b "seq";
    List.iter (dump_stmt b) ss
  | Ast.Cobegin ss ->
    Buffer.add_string b "par";
    List.iter (dump_stmt b) ss
  | Ast.Wait x -> Printf.bprintf b "wait %s" x
  | Ast.Signal x -> Printf.bprintf b "signal %s" x
  | Ast.Send (c, e) ->
    Printf.bprintf b "send %s " c;
    dump_expr b e
  | Ast.Recv (c, x) -> Printf.bprintf b "recv %s %s" c x);
  Buffer.add_char b '}'

let dump_decls b decls =
  List.iter (fun d -> Printf.bprintf b "[%s]" (Fmt.str "%a" Pretty.pp_decl d)) decls

let dump_program b (p : Ast.program) =
  dump_decls b p.decls;
  dump_stmt b p.body

let dump_linked b (l : Ast.linked) =
  List.iter
    (fun (m : Ast.module_unit) ->
      Printf.bprintf b "<module %s" m.iface.m_name;
      List.iter
        (fun (e : Ast.iface_entry) -> Printf.bprintf b " +%s<=%s" e.iv_name e.iv_class)
        m.iface.provides;
      List.iter
        (fun (e : Ast.iface_entry) -> Printf.bprintf b " -%s>=%s" e.iv_name e.iv_class)
        m.iface.requires;
      dump_decls b m.m_decls;
      dump_stmt b m.m_body;
      Buffer.add_char b '>')
    l.modules;
  Option.iter (dump_program b) l.main

let dump_tokens b src =
  match Lexer.tokenize src with
  | Error e -> Printf.bprintf b "lex error %d:%d %s" e.pos.line e.pos.col e.message
  | Ok toks ->
    List.iter
      (fun (t : Lexer.spanned) ->
        Printf.bprintf b "%s@%s " (Token.to_string t.token) (span_s t.span))
      toks

let dump_parse b parse dump src =
  match parse src with
  | Ok x -> dump b x
  | Error (e : Parser.error) ->
    Printf.bprintf b "error %d:%d %s" e.pos.line e.pos.col e.message

(* Three truncations and one byte flip of [text]: the parse of each,
   which is almost always an error. *)
let mutants rng text =
  let n = String.length text in
  let cut k = String.sub text 0 (k * n / 4) in
  let flipped =
    if n = 0 then text
    else
      let i = Prng.int rng n in
      let c = pick rng [ '\000'; '$'; '|'; '!'; '('; '*'; '-'; ':'; '9'; 'Q'; '\n'; '<' ] in
      String.mapi (fun j d -> if j = i then c else d) text
  in
  [ cut 1; cut 2; cut 3; flipped ]

(* ------------------------------------------------------------------ *)
(* Programs *)

let program_lines rng two mls (p : Ast.program) =
  let b = Buffer.create 4096 in
  let text = Pretty.program_to_string p in
  Buffer.add_string b text;
  Buffer.add_char b '\n';
  Buffer.add_string b (Pretty.stmt_to_string p.body);
  Buffer.add_char b '\n';
  dump_parse b Parser.parse_program dump_program text;
  Buffer.add_char b '\n';
  dump_tokens b text;
  Buffer.add_char b '\n';
  List.iter
    (fun lattice ->
      let classes =
        List.map
          (fun v -> (v, pick rng lattice.Lattice.elements))
          (Sset.elements (Vars.all_vars p.body))
      in
      let binding = Binding.make lattice classes in
      let spec = Job.make ~id:0 ~name:"pin" ~lattice ~binding p in
      Printf.bprintf b "%s\n" (Job.digest spec))
    [ two; mls ];
  List.iter
    (fun src ->
      Printf.bprintf b "%b " (Parser.looks_linked src);
      dump_parse b Parser.parse_program dump_program src;
      Buffer.add_char b '\n')
    (mutants rng text);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Linked units *)

(* One to three modules over generated bodies: every third variable is
   imported, the others are declared locally and about half of those
   exported; sometimes a main program follows. *)
let gen_linked rng =
  let n_modules = 1 + Prng.int rng 3 in
  let classes = fresh_names rng ~max_len:(pick rng [ 3; 12; 30 ]) 3 in
  let module_names = fresh_names rng ~max_len:(pick rng [ 2; 10; 40 ]) n_modules in
  let modules =
    List.map
      (fun m_name ->
        let cfg = config rng (pick rng base_configs) in
        let p = Gen.program rng cfg ~size:(1 + Prng.int rng 30) in
        let vars = Sset.elements (Vars.all_vars p.body) in
        let imports = List.filteri (fun i _ -> i mod 3 = 0) vars in
        let local d =
          match d with
          | Ast.Var_decl { name; _ }
          | Ast.Arr_decl { name; _ }
          | Ast.Sem_decl { name; _ }
          | Ast.Chan_decl { name; _ } ->
            not (List.mem name imports)
        in
        let m_decls = with_classes rng classes (List.filter local p.decls) in
        let provides =
          List.filter_map
            (function
              | Ast.Var_decl { name; _ } when Prng.bool rng ->
                Some { Ast.iv_name = name; iv_class = pick rng classes }
              | _ -> None)
            m_decls
        in
        let requires =
          List.map (fun v -> { Ast.iv_name = v; iv_class = pick rng classes }) imports
        in
        {
          Ast.iface = { Ast.m_name; provides; requires };
          m_decls;
          m_body = with_declassify rng classes p.body;
        })
      module_names
  in
  let main =
    if Prng.bool rng then None
    else Some (gen_program rng (pick rng base_configs))
  in
  { Ast.modules; main }

let linked_lines rng (l : Ast.linked) =
  let b = Buffer.create 4096 in
  let text = Pretty.linked_to_string l in
  Buffer.add_string b text;
  Buffer.add_char b '\n';
  dump_parse b Parser.parse_linked dump_linked text;
  Buffer.add_char b '\n';
  List.iter
    (fun src ->
      Printf.bprintf b "%b " (Parser.looks_linked src);
      dump_parse b Parser.parse_linked dump_linked src;
      Buffer.add_char b '\n')
    (mutants rng text);
  Buffer.contents b

let corpus_digest () =
  let two = scheme "two" and mls = scheme "mls" in
  let buf = Buffer.create (1 lsl 22) in
  List.iteri
    (fun k base ->
      let rng = Prng.create (7919 * (k + 1)) in
      for _ = 1 to 500 do
        Buffer.add_string buf (program_lines rng two mls (gen_program rng base))
      done)
    base_configs;
  let rng = Prng.create 104729 in
  for _ = 1 to 200 do
    Buffer.add_string buf (linked_lines rng (gen_linked rng))
  done;
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_pinned () =
  let bytes, md5 = corpus_digest () in
  Alcotest.(check bool) "corpus is non-trivial" true (bytes > 1_000_000);
  Alcotest.(check string) "printed, parsed, lexed, digested and rejected forms"
    "18291b2c1c7e976ed61a33e1244eab6d" md5

(* The structural key of modules and linked units, pinned apart from
   the corpus above: summary body digests and the linked digest are
   fixed by the ifc-cert 2 format, so the fold behind them must keep its
   bytes wherever it lives. *)
let test_key_pinned () =
  let rng = Prng.create 1299709 in
  let buf = Buffer.create 16384 in
  for _ = 1 to 200 do
    let l = gen_linked rng in
    List.iter
      (fun m -> Printf.bprintf buf "%s " (Ifc_lang.Key.module_digest m))
      l.Ast.modules;
    Printf.bprintf buf "%s\n" (Ifc_lang.Key.linked_digest l)
  done;
  Alcotest.(check string) "module and linked-unit digests"
    "1922a144f2a0374908af990f2a31c2a9" (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Layout boundaries *)

(* [assign_of_width w] is an assignment whose one-line form is exactly
   [w] columns: "x := " then a variable name filling the rest. *)
let assign_of_width w = Ast.assign "x" (Ast.Var (String.make (w - 5) 'v'))

let lines s = String.split_on_char '\n' s

let test_margin () =
  let at78 = Pretty.stmt_to_string (assign_of_width 78) in
  Alcotest.(check (list string)) "exactly 78 - 0 columns breaks"
    [ "x :="; "  " ^ String.make 73 'v' ]
    (lines at78);
  let at77 = Pretty.stmt_to_string (assign_of_width 77) in
  Alcotest.(check string) "one column shorter stays flat" ("x := " ^ String.make 72 'v') at77;
  (* At column 2, inside a broken block: the limit is 78 - 2. *)
  let block w =
    Pretty.stmt_to_string (Ast.seq [ assign_of_width w; Ast.assign "y" (Ast.int 1) ])
  in
  Alcotest.(check (list string)) "exactly 78 - 2 columns breaks at column 2"
    [ "begin"; "  x :="; "    " ^ String.make 71 'v' ^ ";"; "  y := 1"; "end" ]
    (lines (block 76));
  Alcotest.(check (list string)) "one column shorter stays flat at column 2"
    [ "begin"; "  x := " ^ String.make 70 'v' ^ ";"; "  y := 1"; "end" ]
    (lines (block 75))

let test_indent_cap () =
  (* Forty nested loops around an assignment too wide for any line. *)
  let rec nest k s =
    if k = 0 then s else nest (k - 1) (Ast.while_ (Ast.Var "c") s)
  in
  let text = Pretty.stmt_to_string (nest 40 (assign_of_width 90)) in
  let indent l =
    let n = String.length l in
    let rec go i = if i < n && l.[i] = ' ' then go (i + 1) else i in
    go 0
  in
  let indents = List.map indent (lines text) in
  Alcotest.(check int) "deepest indentation" 68 (List.fold_left max 0 indents);
  Alcotest.(check bool) "capped lines repeat" true
    (List.length (List.filter (( = ) 68) indents) > 2);
  (match Parser.parse_stmt text with
  | Ok s ->
    Alcotest.(check bool) "re-parses" true (Ast.equal_stmt s (nest 40 (assign_of_width 90)))
  | Error e -> Alcotest.failf "reparse: %a" Parser.pp_error e)

let suite =
  ( "frontend",
    [
      Alcotest.test_case "pinned front-end outputs" `Quick test_pinned;
      Alcotest.test_case "pinned structural key" `Quick test_key_pinned;
      Alcotest.test_case "margin boundary" `Quick test_margin;
      Alcotest.test_case "indentation cap" `Quick test_indent_cap;
    ] )
