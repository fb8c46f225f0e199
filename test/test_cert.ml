(* Tests for the proof-certificate subsystem: canonical round-trips,
   parser robustness on mutated input, tamper rejection with node paths,
   generator/checker agreement on random programs, emit-and-check
   coverage of the paper programs and the persisted fuzz corpus, and the
   emitter against the witness-then-render sequence it replaced. *)

module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Paper = Ifc_core.Paper
module Chain = Ifc_lattice.Chain
module Lattice = Ifc_lattice.Lattice
module Invariance = Ifc_logic_gen.Invariance
module Emit = Ifc_logic_gen.Emit
module Cfm = Ifc_core.Cfm
module Check = Ifc_logic.Check
module Job = Ifc_pipeline.Job
module Cert = Ifc_cert.Cert
module Checker = Ifc_cert.Checker
module Corpus = Ifc_fuzz.Corpus
module Sset = Ifc_support.Sset

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let qtest ?(count = 60) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let two = Lattice.stringify Chain.two

let parse_program_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let all_low p = Binding.make two ~default:two.Lattice.bottom []
  |> fun b -> ignore p; b

let emit_exn binding (p : Ast.program) =
  match Invariance.witness binding p.Ast.body with
  | Error errs ->
    Alcotest.failf "program unexpectedly not provable (%d errors)"
      (List.length errs)
  | Ok proof -> Cert.of_proof ~binding ~program:p proof

let sec52 = parse_program_exn "var x, y : integer;\nbegin x := 0; y := x end"

let sec52_cert_text () = Cert.to_string (emit_exn (all_low sec52) sec52)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let replace_first ~sub ~by text =
  let nt = String.length text and ns = String.length sub in
  let rec find i =
    if i + ns > nt then None
    else if String.sub text i ns = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "fixture drift: %S not found in certificate" sub
  | Some i ->
    String.sub text 0 i ^ by ^ String.sub text (i + ns) (nt - i - ns)

(* ------------------------------------------------------------------ *)
(* Round-trips *)

let test_roundtrip_structural () =
  let cert = emit_exn (all_low sec52) sec52 in
  let text = Cert.to_string cert in
  match Cert.parse text with
  | Error e -> Alcotest.failf "own output must parse: %a" Cert.pp_parse_error e
  | Ok parsed ->
    check_int "node count survives" (Cert.node_count cert)
      (Cert.node_count parsed);
    check_string "digest survives" cert.Cert.program_digest
      parsed.Cert.program_digest;
    check "binds survive" true (cert.Cert.binds = parsed.Cert.binds);
    (match Checker.check parsed sec52 with
    | Ok () -> ()
    | Error (f :: _) ->
      Alcotest.failf "checker must accept a fresh certificate: %a"
        Checker.pp_failure f
    | Error [] -> Alcotest.fail "rejected with no failures")

let test_roundtrip_byte_identical () =
  let text = sec52_cert_text () in
  match Cert.parse text with
  | Error e -> Alcotest.failf "parse failed: %a" Cert.pp_parse_error e
  | Ok parsed ->
    check_string "re-emission is byte-identical" text (Cert.to_string parsed)

let test_digest_is_pretty_printed_form () =
  (* Whitespace and comments in the source must not change the digest. *)
  let noisy =
    parse_program_exn
      "-- a comment\nvar x, y : integer;\nbegin  x := 0;\n  y := x end"
  in
  check_string "digest insensitive to concrete syntax"
    (Cert.program_digest sec52) (Cert.program_digest noisy)

(* ------------------------------------------------------------------ *)
(* Parser robustness: mutations never escape as exceptions *)

let structured_result text =
  match Cert.parse text with
  | Ok _ -> true
  | Error e -> not (contains_substring e.Cert.reason "internal error")
  | exception exn ->
    Alcotest.failf "parse raised on %S...: %s"
      (String.sub text 0 (min 40 (String.length text)))
      (Printexc.to_string exn)

let test_parser_truncations () =
  let text = sec52_cert_text () in
  for len = 0 to String.length text - 1 do
    check
      (Printf.sprintf "truncation at %d is structured" len)
      true
      (structured_result (String.sub text 0 len))
  done

let test_parser_byte_flips () =
  let text = sec52_cert_text () in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string text in
      Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 13) mod 128));
      check
        (Printf.sprintf "byte flip at %d is structured" i)
        true
        (structured_result (Bytes.to_string b)))
    text

let test_parser_line_surgery () =
  let text = sec52_cert_text () in
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  for drop = 0 to n - 1 do
    let mutated =
      List.filteri (fun i _ -> i <> drop) lines |> String.concat "\n"
    in
    check
      (Printf.sprintf "dropping line %d is structured" drop)
      true
      (structured_result mutated)
  done;
  check "duplicated body is structured" true (structured_result (text ^ text));
  check "leading garbage is structured" true
    (structured_result ("junk\n" ^ text));
  check "trailing garbage is structured" true
    (structured_result (text ^ "trailing\n"))

let test_parser_rejects_wrong_version () =
  let text = replace_first ~sub:"ifc-cert 1" ~by:"ifc-cert 2"
      (sec52_cert_text ())
  in
  match Cert.parse text with
  | Ok _ -> Alcotest.fail "future version must not parse"
  | Error e -> check_int "error on line 1" 1 e.Cert.line

(* Both formats open with the same header (version, digest, lattice
   lines, sorted binds). Each malformed header is pinned with its line
   and message, per format. *)
let header_errors () =
  let lattice =
    String.split_on_char '\n' (Ifc_lattice.Spec.to_text two)
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> "lattice: " ^ l)
  in
  let hex = String.make 32 'a' in
  let cases ~version ~label tail =
    let t ?(version = version) ?(digest = hex) ?(lattice = lattice)
        ?(binds = [ "bind: x = low"; "bind: y = high" ]) () =
      String.concat "\n"
        ((Printf.sprintf "ifc-cert %d" version :: (label ^ ": " ^ digest) :: lattice)
        @ binds @ tail)
      ^ "\n"
    in
    [
      ("well-formed", t ());
      ("wrong version", t ~version:7 ());
      ("non-hex digest", t ~digest:(String.make 32 'G') ());
      ("no lattice line", t ~lattice:[] ());
      ("invalid lattice", t ~lattice:[ "lattice: order" ] ());
      ("unsorted binds", t ~binds:[ "bind: y = low"; "bind: x = low" ] ());
      ("unknown class", t ~binds:[ "bind: x = medium" ] ());
      ("truncated", Printf.sprintf "ifc-cert %d\n" version);
      ("no version header", "ifc-certificate\n" ^ t ());
      ("malformed version", Printf.sprintf "ifc-cert v%d\n" version ^ t ());
      ("no digest line", Printf.sprintf "ifc-cert %d\ndigest: %s\n" version hex);
    ]
  in
  let show name = function
    | Ok _ -> name ^ ": ok"
    | Error (e : Cert.parse_error) -> Printf.sprintf "%s: line %d: %s" name e.line e.reason
  in
  List.map
    (fun (name, t) -> show ("v1 " ^ name) (Cert.parse t))
    (cases ~version:1 ~label:"program"
       [ "nodes: 1"; "node 0: skip"; "  pre: {}"; "  post: {}" ])
  @ List.map
      (fun (name, t) -> show ("v2 " ^ name) (Ifc_cert.Linked.parse t))
      (cases ~version:2 ~label:"linked" [ "summaries: 0"; "main: 0" ])

let test_parser_header_errors () =
  Alcotest.(check (list string)) "header errors"
    [
      "v1 well-formed: ok";
      "v1 wrong version: line 1: unsupported certificate version 7";
      "v1 non-hex digest: line 2: malformed program digest (expected 32 lowercase hex digits)";
      "v1 no lattice line: line 3: expected at least one \"lattice: ...\" line";
      "v1 invalid lattice: line 3: invalid lattice spec: line 1: unrecognised directive \"order\"";
      "v1 unsorted binds: line 7: bindings must be sorted by variable name";
      "v1 unknown class: line 6: unknown class \"medium\"";
      "v1 truncated: line 2: unexpected end of certificate: expected program digest";
      "v1 no version header: line 1: expected version header \"ifc-cert 1\"";
      "v1 malformed version: line 1: malformed version header";
      "v1 no digest line: line 2: expected \"program: <md5-hex>\"";
      "v2 well-formed: ok";
      "v2 wrong version: line 1: unsupported linked-certificate version 7";
      "v2 non-hex digest: line 2: malformed linked digest (expected 32 lowercase hex digits)";
      "v2 no lattice line: line 3: expected at least one \"lattice: ...\" line";
      "v2 invalid lattice: line 3: invalid lattice spec: line 1: unrecognised directive \"order\"";
      "v2 unsorted binds: line 7: bindings must be sorted by variable name";
      "v2 unknown class: line 6: unknown class \"medium\"";
      "v2 truncated: line 2: unexpected end of certificate: expected linked digest";
      "v2 no version header: line 1: expected version header \"ifc-cert 2\"";
      "v2 malformed version: line 1: malformed version header";
      "v2 no digest line: line 2: expected \"linked: <md5-hex>\"";
    ]
    (header_errors ())

(* ------------------------------------------------------------------ *)
(* Tamper detection: each class of forgery names the offending node *)

let reject_path program text expected_path =
  match Cert.parse text with
  | Error e ->
    Alcotest.failf "tampered file should parse, not %a" Cert.pp_parse_error e
  | Ok cert -> (
    match Checker.check cert program with
    | Ok () -> Alcotest.fail "tampered certificate must be rejected"
    | Error (first :: _) ->
      check_string "first failure names the node" expected_path
        first.Checker.path
    | Error [] -> Alcotest.fail "rejected with no failures")

let test_tamper_assertion_class () =
  (* Weaken one assertion: claim a high bound where the proof needs low.
     The first [const(low)] in the canonical text sits in the root node's
     assertion, so the checker's first failure names the root path. *)
  let text =
    replace_first ~sub:"const(low)" ~by:"const(high)" (sec52_cert_text ())
  in
  reject_path sec52 text "0"

let test_tamper_rule_swap () =
  (* Re-label the first assign as the (arity-identical) skip axiom: the
     statement at that path is still an assignment, so the skip rule
     cannot apply. *)
  let text =
    replace_first ~sub:": assign" ~by:": skip" (sec52_cert_text ())
  in
  reject_path sec52 text "0.0.0"

let test_tamper_digest_repoint () =
  (* Stamp the certificate for a different program. *)
  let other = parse_program_exn "var x, y : integer;\nbegin x := 1; y := x end" in
  let text =
    replace_first
      ~sub:(Cert.program_digest sec52)
      ~by:(Cert.program_digest other)
      (sec52_cert_text ())
  in
  reject_path sec52 text "program"

let test_tamper_binding_forgery () =
  (* Lower a variable the program leaks into: the policy invariant the
     checker derives from the recorded binds no longer holds. *)
  let binding = Binding.make two ~default:"low" [ ("x", "high") ] in
  let leaky = parse_program_exn "var x, y : integer;\nbegin y := 0; x := y end" in
  let cert = emit_exn binding leaky in
  let text =
    replace_first ~sub:"bind: x = high" ~by:"bind: x = low"
      (Cert.to_string cert)
  in
  match Cert.parse text with
  | Error e ->
    Alcotest.failf "forged binding should parse, not %a" Cert.pp_parse_error e
  | Ok forged -> (
    match Checker.check forged leaky with
    | Ok () -> Alcotest.fail "forged binding must be rejected"
    | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Pinned failure lists: a rejected certificate reports every failure in
   walk order with its exact text, however the checker shares work
   between occurrences of one assertion. The values were recorded from
   the checker before it decided each distinct obligation once. *)

(* Replace the pre line of the first assign node under [prefix] whose
   parent is its consequence wrapper by the wrapper's pre with [global]
   raised to high. The assign's pre then has {V,L,G} form with a high
   bound, so its written class is high, and every sibling assertion that
   bounds the written variable by low fails interference, once per
   occurrence. *)
let raise_action_global ~prefix text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let is_target k =
    k >= 3
    && String.starts_with ~prefix:("node " ^ prefix) lines.(k)
    && String.ends_with ~suffix:": assign" lines.(k)
    && String.ends_with ~suffix:": consequence" lines.(k - 3)
  in
  let rec find k =
    if k >= Array.length lines then
      Alcotest.failf "fixture drift: no wrapped assign under %s" prefix
    else if is_target k then k
    else find (k + 1)
  in
  let k = find 0 in
  lines.(k + 1) <-
    replace_first ~sub:"global <= const(low)" ~by:"global <= const(high)"
      lines.(k - 2);
  String.concat "\n" (Array.to_list lines)

(* Consecutive failures at one path under one rule, with their count. *)
let failure_runs fs =
  List.fold_right
    (fun (f : Checker.failure) acc ->
      match acc with
      | (path, rule, n) :: rest
        when String.equal path f.Checker.path && String.equal rule f.Checker.rule ->
        (path, rule, n + 1) :: rest
      | _ -> (f.Checker.path, f.Checker.rule, 1) :: acc)
    fs []

let failures_md5 fs =
  List.map
    (fun (f : Checker.failure) ->
      String.concat "\t" [ f.Checker.path; f.Checker.rule; f.Checker.reason ])
    fs
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let check_pinned_failures name program text ~runs ~distinct ~md5 =
  match Cert.parse text with
  | Error e -> Alcotest.failf "%s: tampered file should parse: %a" name Cert.pp_parse_error e
  | Ok cert -> (
    match Checker.check cert program with
    | Ok () -> Alcotest.failf "%s: tampered certificate must be rejected" name
    | Error fs ->
      Alcotest.(check (list (triple string string int)))
        (name ^ ": paths and rules, in order") runs (failure_runs fs);
      check_int (name ^ ": failure count")
        (List.fold_left (fun a (_, _, n) -> a + n) 0 runs)
        (List.length fs);
      check_int (name ^ ": distinct reasons") distinct
        (List.length
           (List.sort_uniq String.compare
              (List.map (fun (f : Checker.failure) -> f.Checker.reason) fs)));
      check_string (name ^ ": every path, rule and reason") md5 (failures_md5 fs))

let test_pinned_fig3_failures () =
  let program = Paper.fig3 in
  let text = Cert.to_string (emit_exn (all_low program) program) in
  (* [m := 1] in the second process, against the 55 occurrences of
     assertions bounding m by low in the other two. *)
  check_pinned_failures "fig3" program
    (raise_action_global ~prefix:"0.1." text)
    ~runs:[ ("0", "concurrency", 55); ("0.1.1.0", "assign", 1) ]
    ~distinct:9 ~md5:"48ab00e9d6ee96ecdfa8c55e54662c7d"

(* A generated program (eight integer variables, two semaphores, size
   30) with nested cobegins, at the least binding that holds s at high. *)
let gen_cobegin =
  parse_program_exn
    {|var a, b, c, d, e, f, g, h : integer;
    s, t : semaphore initially(0);
cobegin
  begin
    while b > 1 do begin signal(s); e := b end od;
    begin h := e * e; h := 0 <= b; signal(s) end;
    if c * h > 3 then d := f + 1 fi;
    cobegin h := a - h || e := 0 coend
  end
  ||
  cobegin
    begin
      signal(s);
      if c <> 2 then signal(t) fi;
      d := e < a;
      cobegin e := h + e || f := 2 * a coend
    end
    ||
    if h > 3 then a := e else begin f := a; skip end fi
    ||
    begin g := f; begin signal(t); h := f - g end end
  coend
coend|}

let test_pinned_generated_failures () =
  let binding = Binding.make two ~default:"low" [ ("s", "high") ] in
  let text = Cert.to_string (emit_exn binding gen_cobegin) in
  check_pinned_failures "generated" gen_cobegin
    (raise_action_global ~prefix:"0.1." text)
    ~runs:
      [ ("0", "concurrency", 45); ("0.1", "concurrency", 30); ("0.1.0.2.0", "assign", 1) ]
    ~distinct:13 ~md5:"bacc1f5eb63c2347785330d8319ce0ac"

(* ------------------------------------------------------------------ *)
(* Generator/checker agreement on random programs *)

let arb_bound = Qcheck_arbitrary.bound_program ~max_size:14 two

let decide_matches_cert_accept =
  qtest "decision procedure and certificate checker agree"
    arb_bound
    (fun bp ->
      let program = bp.Qcheck_arbitrary.prog in
      let binding = Qcheck_arbitrary.binding_of bp in
      match Invariance.witness binding program.Ast.body with
      | Error _ -> true
      | Ok proof -> (
        let cert = Cert.of_proof ~binding ~program proof in
        match Cert.parse (Cert.to_string cert) with
        | Error _ -> false
        | Ok parsed -> Result.is_ok (Checker.check parsed program)))

let reemission_canonical =
  qtest "re-emission of any provable program is byte-identical"
    arb_bound
    (fun bp ->
      let program = bp.Qcheck_arbitrary.prog in
      let binding = Qcheck_arbitrary.binding_of bp in
      match Invariance.witness binding program.Ast.body with
      | Error _ -> true
      | Ok proof -> (
        let text = Cert.to_string (Cert.of_proof ~binding ~program proof) in
        match Cert.parse text with
        | Error _ -> false
        | Ok parsed -> String.equal text (Cert.to_string parsed)))

(* ------------------------------------------------------------------ *)
(* Coverage: paper programs and the persisted fuzz corpus *)

let emit_and_check name binding program =
  match Invariance.witness binding program.Ast.body with
  | Error _ -> Alcotest.failf "%s: expected provable" name
  | Ok proof -> (
    let cert = Cert.of_proof ~binding ~program proof in
    let text = Cert.to_string cert in
    match Cert.parse text with
    | Error e -> Alcotest.failf "%s: emitted cert must parse: %a" name
        Cert.pp_parse_error e
    | Ok parsed -> (
      match Checker.check parsed program with
      | Ok () ->
        check_string (name ^ ": canonical re-emission") text
          (Cert.to_string parsed)
      | Error (f :: _) ->
        Alcotest.failf "%s: checker rejected: %a" name Checker.pp_failure f
      | Error [] -> Alcotest.failf "%s: rejected with no failures" name))

let test_paper_programs_certify () =
  let provable = ref 0 in
  List.iter
    (fun (name, program) ->
      let binding = Binding.make two ~default:two.Lattice.bottom [] in
      if Result.is_ok (Invariance.witness binding program.Ast.body) then begin
        incr provable;
        emit_and_check name binding program
      end)
    Paper.all;
  check "most paper programs are provable at the all-low binding" true
    (!provable >= 5)

let corpus_dir = Filename.concat "corpus" "fuzz"

let test_corpus_provable_entries_certify () =
  match Corpus.load corpus_dir with
  | Error msg -> Alcotest.failf "corpus load failed: %s" msg
  | Ok entries ->
    let provable =
      List.filter (fun e -> e.Corpus.expected.Corpus.prove) entries
    in
    check "at least one corpus entry is logic-provable" true (provable <> []);
    List.iter
      (fun (e : Corpus.entry) ->
        emit_and_check ("corpus " ^ e.Corpus.name) e.Corpus.binding
          e.Corpus.program)
      provable

(* ------------------------------------------------------------------ *)
(* The emitter *)

(* The sequence every caller ran before the emitter, kept as its
   reference: the checked witness (Generate plus Logic.Check), then
   render. *)
let reference_emit binding (program : Ast.program) =
  match Invariance.witness binding program.Ast.body with
  | Error _ -> None
  | Ok proof -> Some (Cert.to_string (Cert.of_proof ~binding ~program proof))

let emit_matches_reference (name, lattice) =
  qtest ~count:150
    ("emitter succeeds iff CFM certifies, with the reference bytes, on " ^ name)
    (Qcheck_arbitrary.bound_program ~max_size:12 lattice)
    (fun bp ->
      let program = bp.Qcheck_arbitrary.prog in
      let binding = Qcheck_arbitrary.binding_of bp in
      let certified = Cfm.certified binding program.Ast.body in
      let witness = lazy (Invariance.witness binding program.Ast.body) in
      match (Emit.certificate ~witness binding program, reference_emit binding program) with
      | Ok (text, _), Some reference -> certified && String.equal text reference
      | Error (`Not_certifiable _), None -> not certified
      | _ -> false)

let test_emit_not_certifiable_errors () =
  (* Figure 3 with x high leaks into y: the emitter reports exactly the
     errors of the flow-logic witness. *)
  let binding = Binding.make two ~default:"low" [ ("x", "high") ] in
  let show errors = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Check.pp_error) errors in
  match
    ( Emit.certificate
        ~witness:(lazy (Invariance.witness binding Paper.fig3.Ast.body))
        binding Paper.fig3,
      Invariance.witness binding Paper.fig3.Ast.body )
  with
  | Error (`Not_certifiable errors), Error reference ->
    check "errors reported" true (errors <> []);
    check_string "the witness's errors" (show reference) (show errors)
  | _ -> Alcotest.fail "fig3 under a high x must not certify"

let test_emit_rejects_foreign_derivation () =
  (* The derivation of another program, rendered for sec52: the
     independent checker refuses the bytes, and a cert job reading that
     outcome answers fail with no artifact. *)
  let binding = all_low sec52 in
  let other = parse_program_exn "var x, y : integer;\nbegin y := x end" in
  let proof =
    match Emit.derivation binding other with
    | Some proof -> proof
    | None -> Alcotest.fail "the other program certifies at the all-low binding"
  in
  match Emit.of_proof ~binding ~program:sec52 proof with
  | Error (`Rejected (_ :: _ as failures)) as outcome ->
    let verdict, checks, artifact = Job.cert_outcome outcome in
    check "job fails" false verdict;
    check_int "job counts the checker's failures" (List.length failures) checks;
    check "no artifact" true (Option.is_none artifact)
  | Error (`Rejected []) -> Alcotest.fail "rejected with no failures"
  | Error (`Unparsable _) -> Alcotest.fail "rendered bytes must re-parse"
  | Ok _ -> Alcotest.fail "a foreign derivation must not check"

let suite =
  ( "cert",
    [
      Alcotest.test_case "round-trip structural" `Quick test_roundtrip_structural;
      Alcotest.test_case "round-trip byte-identical" `Quick
        test_roundtrip_byte_identical;
      Alcotest.test_case "digest of pretty-printed form" `Quick
        test_digest_is_pretty_printed_form;
      Alcotest.test_case "parser: truncations" `Quick test_parser_truncations;
      Alcotest.test_case "parser: byte flips" `Quick test_parser_byte_flips;
      Alcotest.test_case "parser: line surgery" `Quick test_parser_line_surgery;
      Alcotest.test_case "parser: wrong version" `Quick
        test_parser_rejects_wrong_version;
      Alcotest.test_case "parser: header errors, both formats" `Quick
        test_parser_header_errors;
      Alcotest.test_case "tamper: assertion class" `Quick
        test_tamper_assertion_class;
      Alcotest.test_case "tamper: rule swap" `Quick test_tamper_rule_swap;
      Alcotest.test_case "tamper: digest re-point" `Quick
        test_tamper_digest_repoint;
      Alcotest.test_case "tamper: binding forgery" `Quick
        test_tamper_binding_forgery;
      Alcotest.test_case "pinned failures: fig3" `Quick test_pinned_fig3_failures;
      Alcotest.test_case "pinned failures: generated cobegin" `Quick
        test_pinned_generated_failures;
      decide_matches_cert_accept;
      reemission_canonical;
      Alcotest.test_case "paper programs emit-and-check" `Quick
        test_paper_programs_certify;
      Alcotest.test_case "corpus provable entries emit-and-check" `Quick
        test_corpus_provable_entries_certify;
      emit_matches_reference ("two", two);
      emit_matches_reference ("mls", Option.get (Ifc_lattice.Builtin.find "mls"));
      Alcotest.test_case "emitter: not-certifiable errors" `Quick
        test_emit_not_certifiable_errors;
      Alcotest.test_case "emitter: foreign derivation rejected" `Quick
        test_emit_rejects_foreign_derivation;
    ] )
