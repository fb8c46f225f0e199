(* Tests for the module system: linked parsing and printing, summary
   exactness against direct CFM, summary-based linking vs whole-program
   certification, ifc-cert 2 round-trips and tamper rejection,
   store-backed summary reuse, refinement soundness, and the Job.Link
   pipeline bridge. *)

module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Gen = Ifc_lang.Gen
module Wellformed = Ifc_lang.Wellformed
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Chain = Ifc_lattice.Chain
module Lattice = Ifc_lattice.Lattice
module Linked = Ifc_cert.Linked
module Summary = Ifc_modsys.Summary
module Link = Ifc_modsys.Link
module Refine = Ifc_modsys.Refine
module Job = Ifc_pipeline.Job
module Store = Ifc_store.Store
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let qtest ?(count = 60) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let two = Lattice.stringify Chain.two

let ( // ) = Filename.concat

let fresh_dir () =
  let path = Filename.temp_file "ifc-modsys" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_exn dir =
  match Store.open_ dir with
  | Ok st -> st
  | Error msg -> Alcotest.failf "Store.open_ %s: %s" dir msg

let overwrite path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let parse_linked_exn src =
  match Parser.parse_linked src with
  | Ok l -> l
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let certify_exn ?store l =
  match Link.certify ?store ~lattice:two l with
  | Ok o -> o
  | Error e -> Alcotest.failf "certify: %s" e

let binding_exn l =
  match Link.binding ~lattice:two l with
  | Ok b -> b
  | Error e -> Alcotest.failf "binding: %s" e

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
  | None -> Alcotest.failf "fixture drift: %S not found" sub
  | Some i -> String.sub text 0 i ^ by ^ String.sub text (i + ns) (nt - i - ns)

(* A certified library: producer computes from a low config, consumer
   sinks the product into a high variable, main supplies the config. *)
let lib_src =
  "module producer\n\
   provides (out : class <= high)\n\
   requires (cfg : class >= low)\n\
   var out : integer class high;\n\
   begin out := cfg + 1 end\n\
   end\n\n\
   module consumer\n\
   requires (out : class >= low)\n\
   var sink : integer class high;\n\
   begin sink := out end\n\
   end\n\n\
   var cfg : integer class low;\n\
   begin cfg := 1 end"

(* A leaking unit: the residual constraint cls(secret) <= low fails once
   the linker binds secret to high. *)
let leak_src =
  "module leaker\n\
   provides (out : class <= low)\n\
   requires (secret : class >= low)\n\
   var out : integer class low;\n\
   begin out := secret end\n\
   end\n\n\
   var secret : integer class high;\n\
   begin skip end"

(* Flow-clean but interface-dirty: the export's declared class exceeds
   its provides bound. *)
let shady_src =
  "module shady\n\
   provides (out : class <= low)\n\
   var out : integer class high;\n\
   out := 0\n\
   end"

(* ------------------------------------------------------------------ *)
(* Language layer *)

let test_roundtrip () =
  let l = parse_linked_exn lib_src in
  check_int "two modules" 2 (List.length l.Ast.modules);
  check "has main" true (l.Ast.main <> None);
  let printed = Pretty.linked_to_string l in
  let l2 = parse_linked_exn printed in
  check "round-trips" true (Ast.equal_linked l l2);
  check_string "second print is stable" printed (Pretty.linked_to_string l2)

let test_looks_linked () =
  check "module source" true (Parser.looks_linked lib_src);
  check "plain program" false
    (Parser.looks_linked "var x : integer;\nbegin x := 0 end")

let test_wellformed () =
  let l = parse_linked_exn lib_src in
  check "library is well-formed" true (Wellformed.linked_is_valid l);
  let dup = parse_linked_exn (lib_src ^ "") in
  let dup = { dup with Ast.modules = dup.Ast.modules @ dup.Ast.modules } in
  check "duplicate module names rejected" false (Wellformed.linked_is_valid dup);
  let dangling =
    parse_linked_exn
      "module a\nrequires (ghost : class >= low)\nvar x : integer;\nx := ghost\nend"
  in
  check "unresolvable import rejected" false (Wellformed.linked_is_valid dangling)

(* ------------------------------------------------------------------ *)
(* Linking *)

let test_certify_lib () =
  let l = parse_linked_exn lib_src in
  let o = certify_exn l in
  check "certifies" true o.Link.ok;
  check "flow verdict" true o.Link.cert_ok;
  check "interface verdict" true o.Link.iface_ok;
  check_int "all summaries computed" 2 o.Link.computed

let test_certify_leak () =
  let l = parse_linked_exn leak_src in
  let o = certify_exn l in
  check "does not certify" false o.Link.ok;
  check "flow verdict false" false o.Link.cert_ok;
  check "an issue names the constraint" true
    (List.exists (fun i -> contains_substring i "cls(secret) <= const(low)") o.Link.issues)

let test_iface_separate_from_flow () =
  let l = parse_linked_exn shady_src in
  let o = certify_exn l in
  check "flow verdict true" true o.Link.cert_ok;
  check "interface verdict false" false o.Link.iface_ok;
  check "overall false" false o.Link.ok

(* The acceptance criterion: the compositional flow verdict agrees with
   whole-program CFM on the elaboration, byte for byte. *)
let agreement_exn l =
  let o = certify_exn l in
  let bind = binding_exn l in
  let whole = Cfm.certified bind (Link.elaborate l).Ast.body in
  check "cert_ok = whole-program CFM" whole o.Link.cert_ok

let test_agreement_hand_cases () =
  List.iter (fun src -> agreement_exn (parse_linked_exn src))
    [ lib_src; leak_src; shady_src ]

(* ------------------------------------------------------------------ *)
(* Random exactness: a summary resolved under a concrete class
   assignment equals direct CFM on the module body. *)

let class_of salt v =
  let arr = Array.of_list two.Lattice.elements in
  arr.(abs (Hashtbl.hash (salt, v)) mod Array.length arr)

let prop_summary_exact (bp : string Qcheck_arbitrary.bound_program) =
  let prog = bp.Qcheck_arbitrary.prog in
  let salt = bp.Qcheck_arbitrary.salt in
  let vars = Sset.elements (Vars.all_vars prog.Ast.body) in
  let is_import v = abs (Hashtbl.hash (salt + 1, v)) mod 3 = 0 in
  let imports = List.filter is_import vars in
  let locals = List.filter (fun v -> not (is_import v)) vars in
  let m =
    {
      Ast.iface =
        {
          Ast.m_name = "m";
          provides = [];
          requires =
            List.map (fun v -> { Ast.iv_name = v; iv_class = "low" }) imports;
        };
      m_decls =
        List.map (fun v -> Ast.Var_decl { name = v; cls = Some (class_of salt v) }) locals;
      m_body = prog.Ast.body;
    }
  in
  match Summary.summarize ~lattice:two m with
  | Error e -> QCheck.Test.fail_reportf "summarize: %s" e
  | Ok s ->
    let bind = Binding.make two (List.map (fun v -> (v, class_of salt v)) vars) in
    let cls v = Some (class_of salt v) in
    let r = Cfm.analyze bind prog.Ast.body in
    let resolved_mod = Summary.resolve_smod ~lattice:two ~cls s.Linked.smod in
    let resolved_flow = Summary.resolve_sflow ~lattice:two ~cls s.Linked.sflow in
    let summary_cert =
      s.Linked.locals_ok
      && List.for_all
           (fun c -> Summary.eval_constr ~lattice:two ~cls c = Some true)
           s.Linked.constraints
    in
    if resolved_mod <> Some r.Cfm.mod_ then
      QCheck.Test.fail_reportf "mod mismatch: %s"
        (match resolved_mod with Some m -> m | None -> "<unresolved>")
    else if resolved_flow <> Some r.Cfm.flow then
      QCheck.Test.fail_report "flow mismatch"
    else if summary_cert <> r.Cfm.certified then
      QCheck.Test.fail_reportf "verdict mismatch: summary %b, direct %b" summary_cert
        r.Cfm.certified
    else true

(* ------------------------------------------------------------------ *)
(* Random agreement: compositional link of generated modules equals
   whole-program certification of the elaboration. *)

let ensure_var_decl name decls =
  let declares n = function
    | Ast.Var_decl { name; _ }
    | Ast.Arr_decl { name; _ }
    | Ast.Sem_decl { name; _ }
    | Ast.Chan_decl { name; _ } ->
      String.equal name n
  in
  if List.exists (declares name) decls then decls
  else decls @ [ Ast.Var_decl { name; cls = None } ]

let drop_var_decl name decls =
  List.filter
    (function Ast.Var_decl { name = n; _ } -> not (String.equal n name) | _ -> true)
    decls

let annotate salt decls =
  List.map
    (function
      | Ast.Var_decl { name; _ } -> Ast.Var_decl { name; cls = Some (class_of salt name) }
      | d -> d)
    decls

let gen_linked seed =
  let rng = Prng.create seed in
  let salt = seed lxor 0x2545 in
  let cfg1 = { Gen.sequential with Gen.vars = [ "aa"; "ab"; "ac" ] } in
  let cfg2 = { Gen.sequential with Gen.vars = [ "ba"; "bb"; "aa" ] } in
  let p1 = Gen.program rng cfg1 ~size:8 in
  let p2 = Gen.program rng cfg2 ~size:8 in
  let m1 =
    {
      Ast.iface =
        {
          Ast.m_name = "m1";
          provides = [ { Ast.iv_name = "aa"; iv_class = "high" } ];
          requires = [];
        };
      m_decls = annotate salt (ensure_var_decl "aa" p1.Ast.decls);
      m_body = p1.Ast.body;
    }
  in
  let m2 =
    {
      Ast.iface =
        {
          Ast.m_name = "m2";
          provides = [];
          requires = [ { Ast.iv_name = "aa"; iv_class = "low" } ];
        };
      m_decls = annotate (salt + 1) (drop_var_decl "aa" p2.Ast.decls);
      m_body = p2.Ast.body;
    }
  in
  let main =
    if seed mod 2 = 0 then None
    else
      Some (Gen.program rng { Gen.sequential with Gen.vars = [ "ca"; "cb" ] } ~size:5)
  in
  { Ast.modules = [ m1; m2 ]; main }

let prop_link_agrees seed =
  let l = gen_linked seed in
  if not (Wellformed.linked_is_valid l) then QCheck.assume_fail ()
  else
    match Link.certify ~lattice:two l with
    | Error e -> QCheck.Test.fail_reportf "certify: %s" e
    | Ok o -> (
      match Link.binding ~lattice:two l with
      | Error e -> QCheck.Test.fail_reportf "binding: %s" e
      | Ok bind ->
        let whole = Cfm.certified bind (Link.elaborate l).Ast.body in
        if o.Link.cert_ok <> whole then
          QCheck.Test.fail_reportf "link says %b, whole-program CFM says %b\n%s"
            o.Link.cert_ok whole
            (Pretty.linked_to_string l)
        else true)

(* ------------------------------------------------------------------ *)
(* ifc-cert 2 *)

let emit_exn l =
  match Link.emit ~lattice:two l (certify_exn l) with
  | Ok (text, components) -> (text, components)
  | Error e -> Alcotest.failf "emit: %s" e

let test_emit_roundtrip () =
  let l = parse_linked_exn lib_src in
  let text, components = emit_exn l in
  check "version sniffs as 2" true (Linked.sniff_version text = Some 2);
  check_int "both modules have components" 2 (List.length components);
  match Linked.parse text with
  | Error e -> Alcotest.failf "own output must parse (line %d: %s)" e.Ifc_cert.Cert.line e.Ifc_cert.Cert.reason
  | Ok parsed ->
    check_string "re-emission is byte-identical" text (Linked.to_string parsed);
    (match Linked.check ~components:(List.map snd components) parsed l with
    | Ok () -> ()
    | Error fs ->
      Alcotest.failf "checker rejects own output: %s: %s"
        (List.hd fs).Linked.path (List.hd fs).Linked.reason)

let test_tampered_summary_rejected () =
  let l = parse_linked_exn lib_src in
  let text, _ = emit_exn l in
  let tampered = replace_first ~sub:"  locals: ok" ~by:"  locals: fail" text in
  match Linked.parse tampered with
  | Error _ -> Alcotest.fail "tampered text should still parse"
  | Ok parsed -> (
    match Linked.check parsed l with
    | Ok () -> Alcotest.fail "checker must reject a tampered summary node"
    | Error fs ->
      check "failure names the summary" true
        (List.exists (fun (f : Linked.failure) -> f.Linked.rule = "locals") fs))

let test_tampered_constraint_rejected () =
  let l = parse_linked_exn lib_src in
  let text, _ = emit_exn l in
  (* Slip a violated constraint into the producer's (empty) residue: the
     checker must re-evaluate what the certificate claims, not trust it. *)
  let tampered =
    replace_first ~sub:"  constraints: {}" ~by:"  constraints: {const(high) <= cls(cfg)}"
      text
  in
  match Linked.parse tampered with
  | Error _ -> Alcotest.fail "tampered text should still parse"
  | Ok parsed -> (
    match Linked.check parsed l with
    | Ok () -> Alcotest.fail "checker must re-evaluate residual constraints"
    | Error fs ->
      check "failure is a constraint failure" true
        (List.exists (fun (f : Linked.failure) -> f.Linked.rule = "constraint") fs))

let test_tampered_component_rejected () =
  let l = parse_linked_exn lib_src in
  let text, components = emit_exn l in
  match Linked.parse text with
  | Error _ -> Alcotest.fail "own output must parse"
  | Ok parsed -> (
    let tampered =
      List.map (fun (_, c) -> replace_first ~sub:"ifc-cert 1" ~by:"ifc-cert 1 " c) components
    in
    match Linked.check ~components:tampered parsed l with
    | Ok () -> Alcotest.fail "checker must reject mangled component certificates"
    | Error _ -> ())

let test_wrong_unit_rejected () =
  let l = parse_linked_exn lib_src in
  let other = parse_linked_exn leak_src in
  let text, _ = emit_exn l in
  match Linked.parse text with
  | Error _ -> Alcotest.fail "own output must parse"
  | Ok parsed -> (
    match Linked.check parsed other with
    | Ok () -> Alcotest.fail "certificate must not transfer to another unit"
    | Error fs ->
      check "digest failure reported" true
        (List.exists (fun (f : Linked.failure) -> f.Linked.rule = "digest") fs))

let test_v1_rejected_by_v2_parser () =
  match Linked.parse "ifc-cert 1\n" with
  | Ok _ -> Alcotest.fail "version-1 header must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Store-backed reuse *)

let lib_src_edited =
  replace_first ~sub:"sink := out" ~by:"sink := out + 1" lib_src

let test_store_reuse () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let l = parse_linked_exn lib_src in
      let o1 = certify_exn ~store:st l in
      check_int "first run computes both" 2 o1.Link.computed;
      check_int "first run reuses none" 0 o1.Link.reused;
      let o2 = certify_exn ~store:st l in
      check_int "second run computes none" 0 o2.Link.computed;
      check_int "second run reuses both" 2 o2.Link.reused;
      check "verdicts agree" o1.Link.ok o2.Link.ok;
      (* Edit one module: only that module's summary is recomputed. *)
      let l' = parse_linked_exn lib_src_edited in
      let o3 = certify_exn ~store:st l' in
      check_int "one module recomputed after the edit" 1 o3.Link.computed;
      check_int "the other is reused" 1 o3.Link.reused;
      (* Damage degrades to a recompute: junk in every summary file is
         quarantined, never served. *)
      Array.iter
        (fun name -> overwrite (dir // "summaries" // name) "rotten")
        (Sys.readdir (dir // "summaries"));
      let o4 = certify_exn ~store:st l in
      check_int "junk summaries recomputed" 2 o4.Link.computed;
      check_int "junk summaries not reused" 0 o4.Link.reused;
      check "same verdict over a damaged store" o1.Link.ok o4.Link.ok;
      check "junk summaries quarantined" true
        ((Store.disk_stats st).Store.quarantined >= 2));
  (* A whole, checksummed summary in the retired version-1 format under a
     live key is a miss: recomputed, rewritten in the current format, and
     reused from then on. *)
  with_dir (fun dir ->
      let l = parse_linked_exn lib_src in
      let l1 = { l with Ast.modules = [ List.hd l.Ast.modules ] } in
      let o = certify_exn ~store:(open_exn dir) l1 in
      let name =
        match Sys.readdir (dir // "summaries") with
        | [| name |] -> name
        | _ -> Alcotest.fail "expected one stored summary"
      in
      let s = List.hd o.Link.summaries in
      let line = Linked.summary_to_line s in
      let v1 =
        Printf.sprintf
          "ifc-store-summary 1\ndigest %s\ngeneration 1\nmod %d\n%s\nflow -\ncert %b\n"
          name (String.length line) line s.Linked.locals_ok
      in
      overwrite
        (dir // "summaries" // name)
        (v1 ^ "checksum " ^ Digest.to_hex (Digest.string v1) ^ "\n");
      let st = open_exn dir in
      let o1 = certify_exn ~store:st l1 in
      check_int "version-1 summary recomputed" 1 o1.Link.computed;
      check_int "version-1 summary not reused" 0 o1.Link.reused;
      check "rewritten in the current format" true
        (String.starts_with ~prefix:"ifc-store-summary 2\n"
           (In_channel.with_open_bin (dir // "summaries" // name) In_channel.input_all));
      let o2 = certify_exn ~store:st l1 in
      check_int "rewritten summary not recomputed" 0 o2.Link.computed;
      check_int "rewritten summary reused" 1 o2.Link.reused)

let test_store_roundtrip_summary () =
  with_dir (fun dir ->
      let st = open_exn dir in
      let l = parse_linked_exn lib_src in
      let m = List.hd l.Ast.modules in
      match Summary.summarize ~lattice:two m with
      | Error e -> Alcotest.failf "summarize: %s" e
      | Ok s -> (
        (match Summary.resolve ~store:st ~lattice:two m with
        | Ok (_, stored) -> check "first resolve computes" false stored
        | Error e -> Alcotest.failf "resolve: %s" e);
        match Summary.resolve ~store:st ~lattice:two m with
        | Ok (s', stored) ->
          check "second resolve is answered by the store" true stored;
          check "summary round-trips through the store" true (s = s')
        | Error e -> Alcotest.failf "resolve: %s" e))

(* ------------------------------------------------------------------ *)
(* Refinement *)

let filter_base_src =
  "module filter\n\
   provides (out : class <= low)\n\
   requires (inp : class >= low)\n\
   var out : integer class low;\n\
   out := 0\n\
   end"

let filter_ok_src =
  "module filter\n\
   provides (out : class <= low)\n\
   requires (inp : class >= low)\n\
   var out : integer class low;\n\
   out := 1\n\
   end"

let filter_leak_src =
  "module filter\n\
   provides (out : class <= low)\n\
   requires (inp : class >= low)\n\
   var out : integer class low;\n\
   out := inp\n\
   end"

let parse_module_exn src =
  match (parse_linked_exn src).Ast.modules with
  | [ m ] -> m
  | _ -> Alcotest.fail "expected exactly one module"

let refine_exn ~base replacement =
  match Refine.check_against ~lattice:two ~base replacement with
  | Ok r -> r
  | Error e -> Alcotest.failf "refine: %s" e

let test_refine_self () =
  let base = parse_module_exn filter_base_src in
  let r = refine_exn ~base base in
  check "a module refines itself" true r.Refine.ok

let test_refine_ok () =
  let base = parse_module_exn filter_base_src in
  let r = refine_exn ~base (parse_module_exn filter_ok_src) in
  check "constant-for-constant passes" true r.Refine.ok

let test_refine_leak_rejected () =
  let base = parse_module_exn filter_base_src in
  let r = refine_exn ~base (parse_module_exn filter_leak_src) in
  check "new residual constraint rejected" false r.Refine.ok;
  check "reason mentions the constraint" true
    (List.exists (fun s -> contains_substring s "residual constraint") r.Refine.reasons)

(* Soundness, concretely: the rejected refinement really does break a
   link the accepted one survives. *)
let test_refine_soundness_witness () =
  let unit_with m_src =
    parse_linked_exn
      (m_src
      ^ "\n\nvar inp : integer class high; sink : integer class low;\n\
         begin sink := out end")
  in
  check "base unit certifies" true (certify_exn (unit_with filter_base_src)).Link.ok;
  check "accepted refinement keeps the link certified" true
    (certify_exn (unit_with filter_ok_src)).Link.ok;
  check "rejected refinement breaks the link" false
    (certify_exn (unit_with filter_leak_src)).Link.ok

(* ------------------------------------------------------------------ *)
(* Pipeline bridge *)

let test_job_link () =
  let l = parse_linked_exn lib_src in
  let analysis = Link.job_analysis ~lattice:two l in
  let spec =
    Job.make ~id:0 ~name:"lib" ~lattice:two ~binding:(binding_exn l)
      ~analyses:[ analysis ] (Link.elaborate l)
  in
  let r = Job.run spec in
  check "job passes" true (Job.verdict r = `Pass);
  (match r.Job.outcome with
  | Ok [ ar ] ->
    check_string "analysis name" "link" ar.Job.analysis;
    check "artifact is the linked certificate" true
      (match ar.Job.artifact with
      | Some text -> Linked.sniff_version text = Some 2
      | None -> false)
  | _ -> Alcotest.fail "expected exactly one analysis result");
  (* Interface bounds join the cache key even when elaborations agree. *)
  let weak = parse_linked_exn (replace_first ~sub:"<= low" ~by:"<= high" shady_src) in
  let strict = parse_linked_exn shady_src in
  check "elaborations coincide" true
    (Pretty.program_to_string (Link.elaborate weak)
    = Pretty.program_to_string (Link.elaborate strict));
  check "cache keys differ" true
    (Job.analysis_key (Link.job_analysis ~lattice:two weak)
    <> Job.analysis_key (Link.job_analysis ~lattice:two strict))

let suite =
  ( "modsys",
    [
      Alcotest.test_case "linked round-trip" `Quick test_roundtrip;
      Alcotest.test_case "looks_linked" `Quick test_looks_linked;
      Alcotest.test_case "linked wellformedness" `Quick test_wellformed;
      Alcotest.test_case "certify library" `Quick test_certify_lib;
      Alcotest.test_case "certify leak" `Quick test_certify_leak;
      Alcotest.test_case "iface verdict separate" `Quick test_iface_separate_from_flow;
      Alcotest.test_case "agreement on hand cases" `Quick test_agreement_hand_cases;
      qtest ~count:200 "summary = direct CFM on random modules"
        (Qcheck_arbitrary.bound_program two) prop_summary_exact;
      qtest ~count:200 "link = whole-program CFM on random units"
        QCheck.(int_bound 1_000_000) prop_link_agrees;
      Alcotest.test_case "ifc-cert 2 round-trip" `Quick test_emit_roundtrip;
      Alcotest.test_case "tampered summary rejected" `Quick test_tampered_summary_rejected;
      Alcotest.test_case "tampered constraint rejected" `Quick
        test_tampered_constraint_rejected;
      Alcotest.test_case "tampered component rejected" `Quick
        test_tampered_component_rejected;
      Alcotest.test_case "wrong unit rejected" `Quick test_wrong_unit_rejected;
      Alcotest.test_case "v1 header rejected by v2 parser" `Quick
        test_v1_rejected_by_v2_parser;
      Alcotest.test_case "store-backed summary reuse" `Quick test_store_reuse;
      Alcotest.test_case "summary store round-trip" `Quick test_store_roundtrip_summary;
      Alcotest.test_case "refine: self" `Quick test_refine_self;
      Alcotest.test_case "refine: accepted" `Quick test_refine_ok;
      Alcotest.test_case "refine: leak rejected" `Quick test_refine_leak_rejected;
      Alcotest.test_case "refine: soundness witness" `Quick test_refine_soundness_witness;
      Alcotest.test_case "Job.Link bridge" `Quick test_job_link;
    ] )
