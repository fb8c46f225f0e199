(* Tests for the language front end: lexer, parser, printer, analyses. *)

module Ast = Ifc_lang.Ast
module Lexer = Ifc_lang.Lexer
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Wellformed = Ifc_lang.Wellformed
module Metrics = Ifc_lang.Metrics
module Gen = Ifc_lang.Gen
module Token = Ifc_lang.Token
module Sset = Ifc_support.Sset
module Prng = Ifc_support.Prng

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let parse_stmt_exn src =
  match Parser.parse_stmt src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let parse_program_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let parse_expr_exn src =
  match Parser.parse_expr src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens_of src =
  match Lexer.tokenize src with
  | Ok toks -> List.map (fun t -> t.Lexer.token) toks
  | Error e -> Alcotest.failf "lex error: %a" Lexer.pp_error e

let test_lexer_basics () =
  let toks = tokens_of "x := y + 42" in
  Alcotest.(check int) "token count" 6 (List.length toks);
  check "shapes" true
    (toks
    = [ Token.IDENT "x"; Token.ASSIGN; Token.IDENT "y"; Token.PLUS; Token.INT 42; Token.EOF ])

let test_lexer_not_equal_forms () =
  List.iter
    (fun src -> check src true (List.mem Token.NE (tokens_of src)))
    [ "x # 0"; "x <> 0"; "x != 0" ]

let test_lexer_par_forms () =
  check "||" true (List.mem Token.PAR (tokens_of "cobegin skip || skip coend"));
  check "!! (paper artifact)" true (List.mem Token.PAR (tokens_of "skip !! skip"))

let test_lexer_comments () =
  let toks = tokens_of "x -- line comment\n := (* block (* nested *) *) 1" in
  check "comments stripped" true
    (toks = [ Token.IDENT "x"; Token.ASSIGN; Token.INT 1; Token.EOF ])

let test_lexer_errors () =
  check "unterminated comment" true (Result.is_error (Lexer.tokenize "(* oops"));
  check "stray char" true (Result.is_error (Lexer.tokenize "x := $"));
  check "lone bang" true (Result.is_error (Lexer.tokenize "x ! y"));
  check "lone pipe" true (Result.is_error (Lexer.tokenize "a | b"))

(* Messages and positions, quirks included: a NUL byte is a character
   like any other, an out-of-range literal is reported after its digits,
   and trailing input at the first token not consumed. *)
let test_error_positions () =
  let error src =
    match Parser.parse_program src with
    | Ok _ -> Alcotest.failf "%S parsed" src
    | Error e -> Printf.sprintf "%d:%d %s" e.pos.line e.pos.col e.message
  in
  let same = Alcotest.(check string) in
  same "NUL byte" "1:6 unexpected character '\\000'" (error "x := \000");
  same "out-of-range literal" "2:30 integer literal out of range: 000099999999999999999999"
    (error "x := 1;\ny := 000099999999999999999999");
  same "trailing input" "1:8 trailing input starting at 'y'" (error "x := 1 y := 2");
  same "unterminated comment" "1:3 unterminated comment" (error "x (* (* *) y");
  same "lone pipe" "1:3 expected '||'" (error "a | b")

(* A lexical error anywhere in the input is reported before a syntax
   error that comes earlier, and makes the input not look linked. *)
let test_lexical_errors_first () =
  let error src =
    match Parser.parse_program src with
    | Ok _ -> Alcotest.failf "%S parsed" src
    | Error e -> Printf.sprintf "%d:%d %s" e.pos.line e.pos.col e.message
  in
  let same = Alcotest.(check string) in
  same "after a syntax error" "2:6 unexpected character '$'" (error "x := ;\ny := $");
  same "after trailing input" "1:13 unexpected character '$'" (error "x := 1 y := $");
  same "after a lookahead" "1:13 expected '||'" (error "var x : y : | ;");
  same "syntax error alone" "1:6 expected an expression but found ';'" (error "x := ; y := 1");
  check "module with a lexical error" false
    (Parser.looks_linked "module m begin x := 1 end (* open");
  check "module" true (Parser.looks_linked "module m begin x := 1 end")

let test_lexer_positions () =
  match Lexer.tokenize "x :=\n  1" with
  | Error e -> Alcotest.failf "lex error: %a" Lexer.pp_error e
  | Ok toks ->
    let one = List.find (fun t -> t.Lexer.token = Token.INT 1) toks in
    check_int "line" 2 one.Lexer.span.start.line;
    check_int "col" 3 one.Lexer.span.start.col

let test_lexer_keywords_case_insensitive () =
  check "IF lexes as keyword" true (List.mem Token.KW_IF (tokens_of "IF x THEN skip"))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_assign () =
  match (parse_stmt_exn "x := y + 1").node with
  | Ast.Assign ("x", Ast.Binop (Ast.Add, Ast.Var "y", Ast.Int 1)) -> ()
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_precedence () =
  let e = parse_expr_exn "1 + 2 * 3 = 7 and not 4 < 5 or true" in
  (* or(and(=(+(1,*(2,3)),7), not(<(4,5))), true) *)
  match e with
  | Ast.Binop
      ( Ast.Or,
        Ast.Binop
          ( Ast.And,
            Ast.Binop
              (Ast.Eq, Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)), Ast.Int 7),
            Ast.Unop (Ast.Not, Ast.Binop (Ast.Lt, Ast.Int 4, Ast.Int 5)) ),
        Ast.Bool true ) ->
    ()
  | _ -> Alcotest.fail "precedence mis-parsed"

let test_parse_left_assoc () =
  match parse_expr_exn "10 - 3 - 2" with
  | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Int 10, Ast.Int 3), Ast.Int 2) -> ()
  | _ -> Alcotest.fail "subtraction not left-associative"

let test_parse_dangling_else () =
  match (parse_stmt_exn "if x = 0 then if y = 0 then skip else z := 1").node with
  | Ast.If (_, { node = Ast.If (_, _, { node = Ast.Assign ("z", _); _ }); _ }, { node = Ast.Skip; _ })
    ->
    ()
  | _ -> Alcotest.fail "else bound to the wrong if"

let test_parse_fi_disambiguates () =
  match (parse_stmt_exn "if x = 0 then if y = 0 then skip fi else z := 1").node with
  | Ast.If (_, { node = Ast.If (_, _, { node = Ast.Skip; _ }); _ }, { node = Ast.Assign ("z", _); _ })
    ->
    ()
  | _ -> Alcotest.fail "fi did not close the inner if"

let test_parse_cobegin () =
  match (parse_stmt_exn "cobegin x := 1 || y := 2 || wait(s) coend").node with
  | Ast.Cobegin [ _; _; { node = Ast.Wait "s"; _ } ] -> ()
  | _ -> Alcotest.fail "cobegin shape"

let test_parse_program_decls () =
  let p =
    parse_program_exn
      {|
var x, y : integer class high;
    m : integer;
    modify : semaphore initially(0) class low;
begin m := 0; wait(modify) end
|}
  in
  check_int "decl count" 4 (List.length p.decls);
  (match p.decls with
  | [ Ast.Var_decl { name = "x"; cls = Some "high" };
      Ast.Var_decl { name = "y"; cls = Some "high" };
      Ast.Var_decl { name = "m"; cls = None };
      Ast.Sem_decl { name = "modify"; init = 0; cls = Some "low" } ] ->
    ()
  | _ -> Alcotest.fail "declaration shapes");
  match p.body.node with Ast.Seq [ _; _ ] -> () | _ -> Alcotest.fail "body shape"

let test_parse_paper_fig3 () =
  (* The exact Figure 3 program, as printed in the paper (modulo || for
     the typeset !!). *)
  let src =
    {|
var x, y, m : integer;
    modify, modified, read, done : semaphore initially(0);
cobegin
  begin
    m := 0;
    if x # 0 then begin signal(modify); wait(modified) end;
    signal(read); wait(done);
    if x = 0 then begin signal(modify); wait(modified) end;
    wait(done)
  end
  || begin wait(modify); m := 1; signal(modified) end
  || begin wait(read); y := m; signal(done) end
coend
|}
  in
  let p = parse_program_exn src in
  check_int "seven declarations" 7 (List.length p.decls);
  check "well-formed" true (Wellformed.is_valid p);
  match p.body.node with
  | Ast.Cobegin [ _; _; _ ] -> ()
  | _ -> Alcotest.fail "three processes expected"

let test_parse_errors () =
  let cases =
    [
      ("missing then", "if x = 0 skip");
      ("missing coend", "cobegin skip || skip");
      ("missing assign rhs", "x :=");
      ("stray end", "begin skip end end");
      ("bad decl type", "var x : float; skip");
      ("trailing garbage", "skip skip");
      ("empty input", "");
      ("wait without paren", "wait s");
    ]
  in
  List.iter
    (fun (name, src) -> check name true (Result.is_error (Parser.parse_program src)))
    cases

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip *)

let roundtrip_stmt s =
  let printed = Pretty.stmt_to_string s in
  match Parser.parse_stmt printed with
  | Error e -> Alcotest.failf "reparse failed on %S: %a" printed Parser.pp_error e
  | Ok s' ->
    if not (Ast.equal_stmt s s') then
      Alcotest.failf "round trip changed the AST:@.%s@.vs@.%s" printed
        (Pretty.stmt_to_string s')

let test_roundtrip_fixed () =
  List.iter
    (fun src -> roundtrip_stmt (parse_stmt_exn src))
    [
      "skip";
      "x := -y + 3 * (z - 1)";
      "x := - -y";
      "if x = 0 and y > 1 or not z < 2 then x := 1 else y := 2";
      "while x # 0 do begin x := x - 1; signal(s) end";
      "cobegin begin wait(s); y := 1 end || if x = 0 then signal(s) coend";
      "begin skip; skip; begin skip; x := 1 end end";
    ]

let test_roundtrip_random =
  let count = 200 in
  fun () ->
    let rng = Prng.create 42 in
    for i = 1 to count do
      let size = 1 + (i mod 40) in
      let s = Gen.stmt rng Gen.default ~size in
      roundtrip_stmt s
    done

let test_roundtrip_program () =
  let p =
    parse_program_exn
      "var a : integer class high; s : semaphore initially(2); begin a := 1; wait(s) end"
  in
  let printed = Pretty.program_to_string p in
  match Parser.parse_program printed with
  | Error e -> Alcotest.failf "reparse failed: %a on %S" Parser.pp_error e printed
  | Ok p' -> check "program roundtrip" true (Ast.equal_program p p')

(* ------------------------------------------------------------------ *)
(* Vars *)

let test_vars_modified () =
  let s = parse_stmt_exn "begin x := 1; if y = 0 then z := 2 else wait(s); while w > 0 do signal(t) end" in
  let m = Vars.modified s in
  check "modified set" true
    (Sset.equal m (Sset.of_list [ "x"; "z"; "s"; "t" ]))

let test_vars_read () =
  let s = parse_stmt_exn "begin x := a + b; if c = 0 then skip; wait(s) end" in
  check "read set" true
    (Sset.equal (Vars.read s) (Sset.of_list [ "a"; "b"; "c"; "s" ]))

let test_vars_semaphores () =
  let s = parse_stmt_exn "cobegin wait(s) || signal(t) || x := 1 coend" in
  check "semaphores" true (Sset.equal (Vars.semaphores s) (Sset.of_list [ "s"; "t" ]))

(* ------------------------------------------------------------------ *)
(* Well-formedness *)

let test_wellformed_undeclared () =
  let p = parse_program_exn "var x : integer; y := 1" in
  check "undeclared y" false (Wellformed.is_valid p)

let test_wellformed_sem_in_expr () =
  let p = parse_program_exn "var x : integer; s : semaphore initially(0); x := s" in
  check "semaphore read rejected" false (Wellformed.is_valid p)

let test_wellformed_assign_to_sem () =
  let p = parse_program_exn "var s : semaphore initially(0); s := 1" in
  check "assignment to semaphore rejected" false (Wellformed.is_valid p)

let test_wellformed_var_as_sem () =
  let p = parse_program_exn "var x : integer; wait(x)" in
  check "wait on integer rejected" false (Wellformed.is_valid p)

let test_wellformed_duplicate () =
  let p = parse_program_exn "var x : integer; x : integer; skip" in
  check "duplicate decl rejected" false (Wellformed.is_valid p);
  let msg =
    match Wellformed.errors p with
    | [ i ] -> i.Wellformed.message
    | _ -> Alcotest.fail "expected exactly one error"
  in
  check "same-kind message" true
    (msg = "duplicate declaration of x (both as integer variable)")

let test_wellformed_duplicate_cross_kind () =
  (* Redeclaring a name as a different kind is the nastier bug; the
     message must name both kinds in declaration order. *)
  let p =
    parse_program_exn "var x : integer; x : semaphore initially(0); skip"
  in
  check "cross-kind duplicate rejected" false (Wellformed.is_valid p);
  (match Wellformed.errors p with
  | [ i ] ->
    check "cross-kind message" true
      (i.Wellformed.message
      = "duplicate declaration of x (first as integer variable, again as \
         semaphore)")
  | _ -> Alcotest.fail "expected exactly one error");
  let p2 = parse_program_exn "var a : array(4); a : integer; skip" in
  (match Wellformed.errors p2 with
  | [ i ] ->
    check "array/integer message" true
      (i.Wellformed.message
      = "duplicate declaration of a (first as array, again as integer \
         variable)")
  | _ -> Alcotest.fail "expected exactly one error");
  (* Three declarations of one name report one error per extra decl. *)
  let p3 =
    parse_program_exn
      "var y : integer; y : integer; y : semaphore initially(1); skip"
  in
  check_int "two errors for a triplicate" 2 (List.length (Wellformed.errors p3))

let test_wellformed_duplicate_channel () =
  (* Channels join the kind-aware duplicate diagnostics: the message
     names both kinds in declaration order, whichever comes first. *)
  let p = parse_program_exn "var c : channel(1); c : integer; skip" in
  check "channel/integer duplicate rejected" false (Wellformed.is_valid p);
  (match Wellformed.errors p with
  | [ i ] ->
    check "channel-first message" true
      (i.Wellformed.message
      = "duplicate declaration of c (first as channel, again as integer \
         variable)")
  | _ -> Alcotest.fail "expected exactly one error");
  let p2 =
    parse_program_exn "var c : semaphore initially(0); c : channel(2); skip"
  in
  (match Wellformed.errors p2 with
  | [ i ] ->
    check "semaphore/channel message" true
      (i.Wellformed.message
      = "duplicate declaration of c (first as semaphore, again as channel)")
  | _ -> Alcotest.fail "expected exactly one error");
  let p3 = parse_program_exn "var c : channel(1); c : channel(2); skip" in
  (match Wellformed.errors p3 with
  | [ i ] ->
    check "same-kind channel message" true
      (i.Wellformed.message = "duplicate declaration of c (both as channel)")
  | _ -> Alcotest.fail "expected exactly one error")

let test_wellformed_atomicity_warning () =
  let p =
    parse_program_exn
      "var x, y, z : integer; cobegin x := y + y || y := 1 coend"
  in
  check "errors absent" true (Wellformed.is_valid p);
  let warnings =
    List.filter (fun i -> i.Wellformed.severity = Wellformed.Warning) (Wellformed.check p)
  in
  check_int "one atomicity warning" 1 (List.length warnings)

let test_wellformed_atomicity_ok_single_ref () =
  let p = parse_program_exn "var x, y : integer; cobegin x := y + 1 || y := 1 coend" in
  check "no warnings" true (Wellformed.check p = [])

(* [errors] skips the atomicity check; it must still agree with [check]
   filtered to errors, in order, whether the program is well formed,
   draws only warnings, or has errors of every kind. *)
let test_wellformed_errors_match_check () =
  let errors_of_check p =
    List.filter (fun (i : Wellformed.issue) -> i.severity = Wellformed.Error) (Wellformed.check p)
  in
  let warned = ref 0 and erred = ref 0 in
  let same what (p : Ast.program) =
    let errors = Wellformed.errors p in
    if errors <> errors_of_check p then
      Alcotest.failf "%s: errors differ from check's errors:@.%s" what
        (Pretty.program_to_string p);
    if errors <> [] then incr erred;
    if List.length (Wellformed.check p) > List.length errors then incr warned
  in
  (* Add a semaphore to the first assigned expression. *)
  let rec sem_in_arith sem (s : Ast.stmt) =
    let sub = sem_in_arith sem in
    let node =
      match s.node with
      | Ast.Assign (x, e) -> Ast.Assign (x, Ast.Binop (Ast.Add, e, Ast.Var sem))
      | Ast.If (c, a, b) -> Ast.If (c, sub a, sub b)
      | Ast.While (c, b) -> Ast.While (c, sub b)
      | Ast.Seq ss -> Ast.Seq (List.map sub ss)
      | Ast.Cobegin ss -> Ast.Cobegin (List.map sub ss)
      | n -> n
    in
    { s with node }
  in
  let rng = Prng.create 23 in
  let configs = [| Gen.default; Gen.with_arrays; Gen.with_channels; Gen.sequential |] in
  for i = 1 to 400 do
    let p = Gen.program rng configs.(i mod 4) ~size:(1 + (i mod 40)) in
    same "generated" p;
    same "undeclared names"
      { p with decls = List.filteri (fun j _ -> j mod 2 = i mod 2) p.decls };
    match List.find_map (function Ast.Sem_decl { name; _ } -> Some name | _ -> None) p.decls with
    | Some sem -> same "semaphore in arithmetic" { p with body = sem_in_arith sem p.body }
    | None -> ()
  done;
  List.iter
    (fun (e : Test_corpus.entry) -> same e.name (parse_program_exn e.source))
    Test_corpus.corpus;
  check "some programs draw warnings" true (!warned > 0);
  check "some programs have errors" true (!erred > 0)

let test_infer_decls () =
  let body = parse_stmt_exn "begin x := 1; wait(s) end" in
  let p = Wellformed.infer_decls (Ast.program body) in
  check "valid after inference" true (Wellformed.is_valid p);
  check_int "two decls" 2 (List.length p.decls)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics () =
  let s =
    parse_stmt_exn
      "begin x := 1; while x > 0 do if y = 0 then x := 2 else wait(s); cobegin skip || signal(t) coend end"
  in
  let m = Metrics.of_stmt s in
  check_int "statements" 9 m.statements;
  check_int "assignments" 2 m.assignments;
  check_int "loops" 1 m.loops;
  check_int "branches" 1 m.branches;
  check_int "cobegins" 1 m.cobegins;
  check_int "sync ops" 2 m.sync_ops;
  check_int "width" 2 m.max_width

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_gen_wellformed =
  let count = 100 in
  fun () ->
    let rng = Prng.create 7 in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 60)) in
      if not (Wellformed.is_valid p) then
        Alcotest.failf "generated ill-formed program:@.%s" (Pretty.program_to_string p)
    done

let test_gen_sequential_config () =
  let rng = Prng.create 11 in
  for _ = 1 to 50 do
    let p = Gen.program rng Gen.sequential ~size:30 in
    let m = Metrics.of_program p in
    check_int "no cobegin" 0 m.cobegins;
    check_int "no sync" 0 m.sync_ops
  done

let test_gen_size_tracks_request () =
  let rng = Prng.create 3 in
  List.iter
    (fun size ->
      let p = Gen.program rng Gen.default ~size in
      let m = Metrics.of_program p in
      check
        (Printf.sprintf "size %d within 4x (got %d)" size m.statements)
        true
        (m.statements >= size / 4 && m.statements <= size * 4))
    [ 10; 50; 200; 1000 ]

let test_gen_balanced_terminating_counts () =
  let rng = Prng.create 19 in
  for _ = 1 to 30 do
    let p = Gen.program_balanced rng Gen.default ~size:20 in
    check "balanced program well-formed" true (Wellformed.is_valid p)
  done

(* Every if/while guard of a statement, for coverage assertions below. *)
let rec guards (s : Ast.stmt) acc =
  match s.node with
  | Ast.Skip | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.Wait _
  | Ast.Signal _ | Ast.Send _ | Ast.Recv _ ->
    acc
  | Ast.If (e, a, b) -> guards b (guards a (e :: acc))
  | Ast.While (e, b) -> guards b (e :: acc)
  | Ast.Seq ss | Ast.Cobegin ss ->
    List.fold_left (fun acc s -> guards s acc) acc ss

let rec expr_has_index = function
  | Ast.Int _ | Ast.Bool _ | Ast.Var _ -> false
  | Ast.Index _ -> true
  | Ast.Unop (_, e) -> expr_has_index e
  | Ast.Binop (_, a, b) -> expr_has_index a || expr_has_index b

let collect_guards cfg ~seed ~count ~size =
  let rng = Prng.create seed in
  List.concat_map
    (fun _ ->
      let p = Gen.program rng cfg ~size in
      guards p.Ast.body [])
    (List.init count Fun.id)

let test_gen_guards_cover_shapes () =
  let gs = collect_guards Gen.with_arrays ~seed:29 ~count:80 ~size:25 in
  check "guards generated at all" true (List.length gs > 50);
  check "some guard reads an array" true (List.exists expr_has_index gs);
  check "some guard has a compound scrutinee" true
    (List.exists
       (function Ast.Binop (_, Ast.Binop _, _) -> true | _ -> false)
       gs);
  check "plain variable guards still dominate" true
    (let plain =
       List.length
         (List.filter
            (function Ast.Binop (_, Ast.Var _, Ast.Int _) -> true | _ -> false)
            gs)
     in
     2 * plain > List.length gs)

let test_gen_guards_no_arrays_without_config () =
  List.iter
    (fun (name, cfg) ->
      let gs = collect_guards cfg ~seed:31 ~count:60 ~size:25 in
      check
        (name ^ ": array-free config never emits array reads in guards")
        false
        (List.exists expr_has_index gs))
    [ ("sequential", Gen.sequential); ("default", Gen.default) ]

let test_shrink_preserves_wellformedness () =
  let rng = Prng.create 23 in
  for _ = 1 to 20 do
    let p = Gen.program rng Gen.default ~size:15 in
    Seq.iter
      (fun p' ->
        if not (Wellformed.is_valid p') then
          Alcotest.failf "shrink broke program:@.%s" (Pretty.program_to_string p'))
      (Seq.take 20 (Gen.shrink_program p))
  done

let test_shrink_strictly_smaller_available () =
  let s = parse_stmt_exn "begin x := 1; y := 2 end" in
  let shrinks = List.of_seq (Gen.shrink_stmt s) in
  check "has shrinks" true (shrinks <> []);
  check "some shrink smaller" true
    (List.exists (fun s' -> (Metrics.of_stmt s').statements < 3) shrinks)

let suite =
  ( "lang",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer not-equal forms" `Quick test_lexer_not_equal_forms;
      Alcotest.test_case "lexer par forms" `Quick test_lexer_par_forms;
      Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "error positions" `Quick test_error_positions;
      Alcotest.test_case "lexical errors first" `Quick test_lexical_errors_first;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer keyword case" `Quick test_lexer_keywords_case_insensitive;
      Alcotest.test_case "parse assign" `Quick test_parse_assign;
      Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
      Alcotest.test_case "parse left assoc" `Quick test_parse_left_assoc;
      Alcotest.test_case "parse dangling else" `Quick test_parse_dangling_else;
      Alcotest.test_case "parse fi disambiguates" `Quick test_parse_fi_disambiguates;
      Alcotest.test_case "parse cobegin" `Quick test_parse_cobegin;
      Alcotest.test_case "parse program decls" `Quick test_parse_program_decls;
      Alcotest.test_case "parse paper figure 3" `Quick test_parse_paper_fig3;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "roundtrip fixed cases" `Quick test_roundtrip_fixed;
      Alcotest.test_case "roundtrip random programs" `Quick test_roundtrip_random;
      Alcotest.test_case "roundtrip program with decls" `Quick test_roundtrip_program;
      Alcotest.test_case "vars modified" `Quick test_vars_modified;
      Alcotest.test_case "vars read" `Quick test_vars_read;
      Alcotest.test_case "vars semaphores" `Quick test_vars_semaphores;
      Alcotest.test_case "wellformed undeclared" `Quick test_wellformed_undeclared;
      Alcotest.test_case "wellformed sem in expr" `Quick test_wellformed_sem_in_expr;
      Alcotest.test_case "wellformed assign to sem" `Quick test_wellformed_assign_to_sem;
      Alcotest.test_case "wellformed var as sem" `Quick test_wellformed_var_as_sem;
      Alcotest.test_case "wellformed duplicate" `Quick test_wellformed_duplicate;
      Alcotest.test_case "wellformed duplicate cross-kind" `Quick
        test_wellformed_duplicate_cross_kind;
      Alcotest.test_case "wellformed duplicate channel" `Quick
        test_wellformed_duplicate_channel;
      Alcotest.test_case "atomicity warning" `Quick test_wellformed_atomicity_warning;
      Alcotest.test_case "atomicity single ref ok" `Quick
        test_wellformed_atomicity_ok_single_ref;
      Alcotest.test_case "wellformed errors match check" `Quick
        test_wellformed_errors_match_check;
      Alcotest.test_case "infer decls" `Quick test_infer_decls;
      Alcotest.test_case "metrics" `Quick test_metrics;
      Alcotest.test_case "generator well-formed" `Quick test_gen_wellformed;
      Alcotest.test_case "generator sequential config" `Quick test_gen_sequential_config;
      Alcotest.test_case "generator size tracking" `Quick test_gen_size_tracks_request;
      Alcotest.test_case "generator balanced" `Quick test_gen_balanced_terminating_counts;
      Alcotest.test_case "generator guard shapes" `Quick test_gen_guards_cover_shapes;
      Alcotest.test_case "generator guard shapes gated" `Quick
        test_gen_guards_no_arrays_without_config;
      Alcotest.test_case "shrink preserves wellformedness" `Quick
        test_shrink_preserves_wellformedness;
      Alcotest.test_case "shrink produces smaller" `Quick
        test_shrink_strictly_smaller_available;
    ] )
