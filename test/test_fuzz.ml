(* Tests for the differential fuzzing subsystem: the disagreement
   taxonomy, shrinker invariants, the persisted corpus (replay and
   round-trip), the planted-inversion hook end-to-end, and worker-count
   determinism of whole campaigns. *)

module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Metrics = Ifc_lang.Metrics
module Parser = Ifc_lang.Parser
module Wellformed = Ifc_lang.Wellformed
module Binding = Ifc_core.Binding
module Chain = Ifc_lattice.Chain
module Lattice = Ifc_lattice.Lattice
module Classify = Ifc_fuzz.Classify
module Oracle = Ifc_fuzz.Oracle
module Shrink = Ifc_fuzz.Shrink
module Corpus = Ifc_fuzz.Corpus
module Campaign = Ifc_fuzz.Campaign
module Plant = Ifc_support.Plant

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let qtest ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let two = Lattice.stringify Chain.two

let parse_program_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A scratch directory the corpus writer will create. *)
let fresh_dir () =
  let path = Filename.temp_file "ifc-fuzz" "" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Taxonomy *)

let v ~cfm ~denning ~fs ~prove ?(cert_ok = true) ?(viol = 0)
    ?(lint_race_free = true) ?(lint_deadlock_free = true)
    ?(lint_must_block = false) ?(lint_chan_race_free = true)
    ?(lint_chan_deadlock_free = true) ?(lint_findings = 0) ?(dyn_race = false)
    ?(dyn_deadlock = false) ?(dyn_terminal = true) ?(dyn_complete = true)
    ?(dyn_chan_race = false) ?(dyn_chan_deadlock = false)
    ?(store_divergent = false) ?(prune_spans = 0) ?(prune_violated = false)
    ?(witness_checked = false) ?(witness_ok = true) ?(refine_checked = false)
    ?(refine_claimed_safe = false) ?(refine_dyn_leak = false) () =
  {
    Classify.cfm;
    denning;
    fs;
    prove;
    cert_ok;
    ni_tested = 8;
    ni_skipped = 0;
    ni_violations = viol;
    lint_race_free;
    lint_deadlock_free;
    lint_must_block;
    lint_chan_race_free;
    lint_chan_deadlock_free;
    lint_findings;
    dyn_race;
    dyn_deadlock;
    dyn_terminal;
    dyn_complete;
    dyn_chan_race;
    dyn_chan_deadlock;
    store_divergent;
    prune_spans;
    prune_violated;
    witness_checked;
    witness_ok;
    refine_checked;
    refine_claimed_safe;
    refine_dyn_leak;
  }

let primary_of vv = Classify.primary vv (Classify.classify vv)

let test_classify_table () =
  check_string "healthy certified" "certified-agreement"
    (primary_of (v ~cfm:true ~denning:true ~fs:true ~prove:true ()));
  check_string "unsound certification outranks all" "unsound-certification"
    (primary_of (v ~cfm:true ~denning:true ~fs:true ~prove:true ~viol:1 ()));
  check_string "logic mismatch (prove without cfm)" "logic-mismatch"
    (primary_of (v ~cfm:false ~denning:false ~fs:false ~prove:true ()));
  check_string "logic mismatch (cfm without prove)" "logic-mismatch"
    (primary_of (v ~cfm:true ~denning:true ~fs:true ~prove:false ()));
  check_string "cert round-trip break is an inversion" "cert-inversion"
    (primary_of (v ~cfm:true ~denning:true ~fs:true ~prove:true ~cert_ok:false ()));
  check_string "stale store verdict is an inversion" "store-stale"
    (primary_of
       (v ~cfm:true ~denning:true ~fs:true ~prove:true ~store_divergent:true ()));
  check_string "cert inversion outranks store-stale" "cert-inversion"
    (primary_of
       (v ~cfm:true ~denning:true ~fs:true ~prove:true ~cert_ok:false
          ~store_divergent:true ()));
  check_string "store-stale outranks hierarchy labels" "store-stale"
    (primary_of
       (v ~cfm:true ~denning:false ~fs:true ~prove:true ~store_divergent:true ()));
  check_string "cert verdict is vacuous without a proof" "unconfirmed-rejection"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~cert_ok:true ()));
  check_string "logic mismatch outranks cert inversion" "logic-mismatch"
    (primary_of (v ~cfm:false ~denning:false ~fs:false ~prove:true ~cert_ok:false ()));
  check_string "cfm above denning is an inversion" "hierarchy-denning"
    (primary_of (v ~cfm:true ~denning:false ~fs:true ~prove:true ()));
  check_string "cfm above flow-sensitive is an inversion" "hierarchy-fs"
    (primary_of (v ~cfm:true ~denning:true ~fs:false ~prove:true ()));
  check_string "denning gap" "denning-gap"
    (primary_of (v ~cfm:false ~denning:true ~fs:false ~prove:false ~viol:1 ()));
  check_string "fs gap" "fs-gap"
    (primary_of (v ~cfm:false ~denning:false ~fs:true ~prove:false ()));
  check_string "confirmed rejection" "confirmed-rejection"
    (primary_of (v ~cfm:false ~denning:false ~fs:false ~prove:false ~viol:2 ()));
  check_string "unconfirmed rejection" "unconfirmed-rejection"
    (primary_of (v ~cfm:false ~denning:false ~fs:false ~prove:false ()));
  check_string "claimed race-free but a race was witnessed" "race-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~dyn_race:true ()));
  check_string "claimed deadlock-free but a deadlock was reached"
    "deadlock-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~dyn_deadlock:true ()));
  check_string "claimed must-block but a run terminated" "deadlock-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~lint_must_block:true
          ~lint_deadlock_free:false ()));
  check_string "no inversion when the analyzer already warned"
    "unconfirmed-rejection"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false
          ~lint_race_free:false ~lint_findings:1 ~dyn_race:true ()));
  check_string "a reached deadlock is fine when not claimed free"
    "unconfirmed-rejection"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false
          ~lint_deadlock_free:false ~dyn_deadlock:true ~dyn_terminal:false ()));
  check_string "cert inversion outranks race-unsound" "cert-inversion"
    (primary_of
       (v ~cfm:true ~denning:true ~fs:true ~prove:true ~cert_ok:false
          ~dyn_race:true ()));
  check_string "claimed chan-race-free but contention was witnessed"
    "chan-race-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~dyn_chan_race:true ()));
  check_string "claimed chan-deadlock-free but a blocked channel was reached"
    "chan-deadlock-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false
          ~dyn_chan_deadlock:true ()));
  check_string "no chan inversion when the channel lint already warned"
    "unconfirmed-rejection"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false
          ~lint_chan_deadlock_free:false ~lint_findings:1 ~dyn_chan_deadlock:true
          ()));
  check_string "chan-deadlock-unsound outranks generic deadlock-unsound"
    "chan-deadlock-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false
          ~dyn_chan_deadlock:true ~dyn_deadlock:true ()));
  check_string "refuted refinement claim is an inversion" "refine-unsound"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~refine_checked:true
          ~refine_claimed_safe:true ~refine_dyn_leak:true ()));
  check_string "refine-unsound outranks the hierarchy labels" "refine-unsound"
    (primary_of
       (v ~cfm:true ~denning:false ~fs:true ~prove:true ~refine_checked:true
          ~refine_claimed_safe:true ~refine_dyn_leak:true ()));
  check_string "accepted refinement without a leak is benign" "refine-accepted"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~refine_checked:true
          ~refine_claimed_safe:true ()));
  check_string "rejected refinement is benign" "refine-rejected"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~refine_checked:true
          ()));
  check_string "a leak under a rejected claim is no inversion" "refine-rejected"
    (primary_of
       (v ~cfm:false ~denning:false ~fs:false ~prove:false ~refine_checked:true
          ~refine_dyn_leak:true ()))

let test_classify_labels_total () =
  (* Every primary label the classifier can emit is in the canonical
     report order. *)
  List.iter
    (fun (cfm, denning, fs, prove, cert_ok, viol) ->
      let vv = v ~cfm ~denning ~fs ~prove ~cert_ok ~viol () in
      check
        (Printf.sprintf "label of (%b,%b,%b,%b,%b,%d) is canonical" cfm denning
           fs prove cert_ok viol)
        true
        (List.mem (primary_of vv) Classify.class_labels))
    (List.concat_map
       (fun viol ->
         List.concat_map
           (fun bits ->
             [
               ( bits land 16 <> 0,
                 bits land 8 <> 0,
                 bits land 4 <> 0,
                 bits land 2 <> 0,
                 bits land 1 <> 0,
                 viol );
             ])
           (List.init 32 Fun.id))
       [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Oracle sanity on the paper's shapes *)

let test_oracle_sec52_is_fs_gap () =
  let p = parse_program_exn "var x, y : integer; begin x := 0; y := x end" in
  let binding = Binding.make two ~default:"low" [ ("x", "high") ] in
  let vv = Oracle.run ~ni_seed:1 ~ni_pairs:4 ~max_states:2_000 binding p in
  check_string "sec52 classifies as fs-gap" "fs-gap" (primary_of vv)

let test_oracle_direct_leak_confirmed () =
  let p = parse_program_exn "var x, y : integer; y := x" in
  let binding = Binding.make two ~default:"low" [ ("x", "high") ] in
  let vv = Oracle.run ~ni_seed:1 ~ni_pairs:4 ~max_states:2_000 binding p in
  check_string "direct leak is a confirmed rejection" "confirmed-rejection"
    (primary_of vv);
  let forced = Oracle.run ~override_cfm:true ~ni_seed:1 ~ni_pairs:4
      ~max_states:2_000 binding p
  in
  check_string "forcing cfm turns it into an unsound certification"
    "unsound-certification" (primary_of forced)

(* ------------------------------------------------------------------ *)
(* Shrinker invariants *)

let arb_program = Qcheck_arbitrary.program ~max_size:20 ()

let shrink_candidates_invariant =
  qtest "shrink candidates stay valid and never grow" arb_program (fun p ->
      let size = Metrics.length p in
      Seq.for_all
        (fun c -> Wellformed.is_valid c && Metrics.length c <= size)
        (Seq.take 150 (Gen.shrink_program p)))

let minimize_bounded =
  qtest "minimize terminates within measure steps and budget" arb_program
    (fun p ->
      let budget = 200 in
      let q, stats = Shrink.minimize ~budget ~keep:Wellformed.is_valid p in
      Wellformed.is_valid q
      && Metrics.length q <= Metrics.length p
      && stats.Shrink.steps <= Metrics.length p
      && stats.Shrink.evals <= budget)

let minimize_preserves_predicate =
  qtest "minimize preserves a non-trivial predicate" arb_program (fun p ->
      let keep q = (Metrics.of_program q).Metrics.assignments >= 1 in
      if not (keep p) then true
      else begin
        let q, _ = Shrink.minimize ~keep p in
        keep q && Wellformed.is_valid q
      end)

(* ------------------------------------------------------------------ *)
(* Corpus *)

let corpus_dir = Filename.concat "corpus" "fuzz"

let test_corpus_replay () =
  match Corpus.load corpus_dir with
  | Error msg -> Alcotest.failf "corpus load failed: %s" msg
  | Ok entries ->
    check "seeded entries present" true (List.length entries >= 2);
    check "sec52 seeded" true
      (List.exists (fun e -> e.Corpus.name = "sec52") entries);
    check "fig3-sync seeded" true
      (List.exists (fun e -> e.Corpus.name = "fig3-sync") entries);
    check "deadlock seeded" true
      (List.exists (fun e -> e.Corpus.name = "deadlock") entries);
    check "handshake-leak seeded" true
      (List.exists (fun e -> e.Corpus.name = "handshake-leak") entries);
    check "chan-prodcons seeded" true
      (List.exists (fun e -> e.Corpus.name = "chan-prodcons") entries);
    check "chan-leak seeded" true
      (List.exists (fun e -> e.Corpus.name = "chan-leak") entries);
    check "chan-deadlock seeded" true
      (List.exists (fun e -> e.Corpus.name = "chan-deadlock") entries);
    check "certified-lib seeded (linked syntax)" true
      (List.exists (fun e -> e.Corpus.name = "certified-lib") entries);
    check "refined-ok seeded (linked syntax)" true
      (List.exists (fun e -> e.Corpus.name = "refined-ok") entries);
    check "refined-leak seeded (linked syntax)" true
      (List.exists (fun e -> e.Corpus.name = "refined-leak") entries);
    check "prune-race seeded (dataflow pruning)" true
      (List.exists (fun e -> e.Corpus.name = "prune-race") entries);
    List.iter
      (fun (e : Corpus.entry) ->
        let name = e.Corpus.name in
        let exp = e.Corpus.expected in
        check (name ^ ": well-formed") true (Wellformed.is_valid e.Corpus.program);
        check (name ^ ": class label canonical") true
          (List.mem exp.Corpus.cls Classify.class_labels);
        check_int
          (name ^ ": statement count matches")
          exp.Corpus.statements
          (Metrics.of_program e.Corpus.program).Metrics.statements;
        let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
        check (name ^ ": cfm") true (Bool.equal exp.Corpus.cfm vv.Classify.cfm);
        check (name ^ ": denning") true
          (Bool.equal exp.Corpus.denning vv.Classify.denning);
        check (name ^ ": fs") true (Bool.equal exp.Corpus.fs vv.Classify.fs);
        check (name ^ ": prove") true
          (Bool.equal exp.Corpus.prove vv.Classify.prove);
        check (name ^ ": cert") true
          (Bool.equal exp.Corpus.cert vv.Classify.cert_ok);
        check (name ^ ": interfering") true
          (Bool.equal exp.Corpus.interfering (vv.Classify.ni_violations > 0));
        check (name ^ ": race_free") true
          (Bool.equal exp.Corpus.race_free vv.Classify.lint_race_free);
        check (name ^ ": deadlock_free") true
          (Bool.equal exp.Corpus.deadlock_free vv.Classify.lint_deadlock_free);
        check (name ^ ": must_block") true
          (Bool.equal exp.Corpus.must_block vv.Classify.lint_must_block);
        check (name ^ ": chan_race_free") true
          (Bool.equal exp.Corpus.chan_race_free vv.Classify.lint_chan_race_free);
        check (name ^ ": chan_deadlock_free") true
          (Bool.equal exp.Corpus.chan_deadlock_free
             vv.Classify.lint_chan_deadlock_free);
        check_int (name ^ ": lint_findings") exp.Corpus.lint_findings
          vv.Classify.lint_findings;
        check_int (name ^ ": pruned") exp.Corpus.pruned
          vv.Classify.prune_spans;
        check (name ^ ": prune refuted by exploration") false
          vv.Classify.prune_violated;
        check (name ^ ": witness_ok") true
          (Bool.equal exp.Corpus.witness_ok vv.Classify.witness_ok))
      (entries : Corpus.entry list)

let test_corpus_roundtrip () =
  let dir = fresh_dir () in
  let program = parse_program_exn "var x, y : integer; y := x" in
  let binding = Binding.make two ~default:"low" [ ("x", "high") ] in
  let vv = Corpus.replay_verdicts binding program in
  let expected =
    Corpus.expected_of_verdicts ~cls:"confirmed-rejection" program vv
  in
  let path =
    Corpus.write ~dir ~name:"direct-leak" ~lattice_name:"two" ~binding
      ~expected ~note:"round-trip fixture" program
  in
  check "program file written" true (Sys.file_exists path);
  match Corpus.load dir with
  | Error msg -> Alcotest.failf "reload failed: %s" msg
  | Ok [ e ] ->
    check "program round-trips" true (Ast.equal_program program e.Corpus.program);
    check_string "class kept" "confirmed-rejection" e.Corpus.expected.Corpus.cls;
    check_string "lattice kept" "two" e.Corpus.lattice_name;
    check "note kept" true (e.Corpus.note = Some "round-trip fixture");
    check "interference recorded" true e.Corpus.expected.Corpus.interfering;
    check_string "binding kept" "high" (Binding.sbind e.Corpus.binding "x")
  | Ok entries -> Alcotest.failf "expected 1 entry, got %d" (List.length entries)

let test_corpus_missing_dir_is_empty () =
  match Corpus.load (Filename.concat (fresh_dir ()) "nowhere") with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom entries"
  | Error msg -> Alcotest.failf "missing dir should be empty, got: %s" msg

let test_corpus_rejects_orphan_program () =
  let dir = fresh_dir () in
  let program = parse_program_exn "var x : integer; x := 1" in
  let binding = Binding.make two ~default:"low" [] in
  let vv = Corpus.replay_verdicts binding program in
  let expected =
    Corpus.expected_of_verdicts ~cls:"certified-agreement" program vv
  in
  let path =
    Corpus.write ~dir ~name:"orphan" ~lattice_name:"two" ~binding ~expected
      program
  in
  Sys.remove (Filename.chop_suffix path ".ifc" ^ ".expect");
  match Corpus.load dir with
  | Error msg ->
    check "missing sidecar reported" true (contains_substring msg "missing sidecar")
  | Ok _ -> Alcotest.fail "orphan .ifc must not load"

(* ------------------------------------------------------------------ *)
(* Campaigns *)

let test_planted_inversion_end_to_end () =
  let dir = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Inversion ];
      corpus_dir = Some dir;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    check "shrunk within the acceptance bound" true
      (c.Campaign.shrunk_statements <= 6);
    check_int "in fact fully minimal" 1 c.Campaign.shrunk_statements;
    check_string "classified as unsound certification" "unsound-certification"
      c.Campaign.label;
    check "persisted to the corpus" true (c.Campaign.corpus_path <> None);
    (match Corpus.load dir with
    | Ok [ e ] ->
      (* The sidecar records HONEST verdicts: replaying against the real
         (healthy) analyzers validates. *)
      let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
      check "honest cfm rejects the persisted program" true
        (Bool.equal e.Corpus.expected.Corpus.cfm vv.Classify.cfm);
      check "cfm verdict is a rejection" false vv.Classify.cfm;
      check "interference preserved by shrinking" true
        (vv.Classify.ni_violations > 0)
    | Ok entries ->
      Alcotest.failf "expected 1 corpus entry, got %d" (List.length entries)
    | Error msg -> Alcotest.failf "corpus reload failed: %s" msg)
  | cs -> Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_planted_cert_inversion_end_to_end () =
  let dir = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Cert_inversion ];
      corpus_dir = Some dir;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    check_string "classified as cert inversion" "cert-inversion"
      c.Campaign.label;
    check "shrunk below the planted padding" true
      (c.Campaign.shrunk_statements < c.Campaign.original_statements);
    check "persisted to the corpus" true (c.Campaign.corpus_path <> None);
    (match Corpus.load dir with
    | Ok [ e ] ->
      check "corpus name carries the label" true
        (contains_substring e.Corpus.name "cert-inversion");
      (* The sidecar records HONEST verdicts: the real certificate
         pipeline round-trips the shrunk program cleanly. *)
      let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
      check "shrunk program stays provable" true vv.Classify.prove;
      check "honest cert round-trip accepts" true vv.Classify.cert_ok;
      check "sidecar recorded the honest cert verdict" true
        e.Corpus.expected.Corpus.cert
    | Ok entries ->
      Alcotest.failf "expected 1 corpus entry, got %d" (List.length entries)
    | Error msg -> Alcotest.failf "corpus reload failed: %s" msg)
  | cs ->
    Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_planted_lint_unsound_end_to_end () =
  let dir = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Lint_unsound ];
      corpus_dir = Some dir;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    check_string "classified as deadlock-unsound" "deadlock-unsound"
      c.Campaign.label;
    (* The planted program blocks on an unsignalled semaphore; the lying
       analyzer claims it safe and dynamic exploration refutes it. The
       shrinker keeps the refutation alive down to the bare wait. *)
    check "shrunk below the planted padding" true
      (c.Campaign.shrunk_statements < c.Campaign.original_statements);
    check "persisted to the corpus" true (c.Campaign.corpus_path <> None);
    (match Corpus.load dir with
    | Ok [ e ] ->
      check "corpus name carries the label" true
        (contains_substring e.Corpus.name "deadlock-unsound");
      (* The sidecar records HONEST verdicts: the real analyzer reports
         the deadlock the planted override hid. *)
      check "honest analyzer sees the block" false
        e.Corpus.expected.Corpus.deadlock_free;
      check "honest analyzer has findings" true
        (e.Corpus.expected.Corpus.lint_findings > 0);
      let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
      check "replay agrees" true
        (Bool.equal e.Corpus.expected.Corpus.deadlock_free
           vv.Classify.lint_deadlock_free)
    | Ok entries ->
      Alcotest.failf "expected 1 corpus entry, got %d" (List.length entries)
    | Error msg -> Alcotest.failf "corpus reload failed: %s" msg)
  | cs ->
    Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_planted_chan_unsound_end_to_end () =
  let dir = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Chan_unsound ];
      corpus_dir = Some dir;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    (* The channel-specific label outranks the generic deadlock-unsound
       label the same witness also triggers. *)
    check_string "classified as chan-deadlock-unsound" "chan-deadlock-unsound"
      c.Campaign.label;
    (* The planted program blocks on a recv nobody feeds; the lying
       analyzer claims it safe and dynamic exploration refutes it with a
       blocked channel at the stuck state. The shrinker keeps that
       refutation alive down to the bare recv. *)
    check "shrunk below the planted padding" true
      (c.Campaign.shrunk_statements < c.Campaign.original_statements);
    check_int "in fact fully minimal" 1 c.Campaign.shrunk_statements;
    check "persisted to the corpus" true (c.Campaign.corpus_path <> None);
    (match Corpus.load dir with
    | Ok [ e ] ->
      check "corpus name carries the label" true
        (contains_substring e.Corpus.name "chan-deadlock-unsound");
      (* The sidecar records HONEST verdicts: the real channel lint
         reports the starved recv the planted override hid. *)
      check "honest analyzer sees the blocked channel" false
        e.Corpus.expected.Corpus.chan_deadlock_free;
      check "honest analyzer has findings" true
        (e.Corpus.expected.Corpus.lint_findings > 0);
      let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
      check "replay agrees" true
        (Bool.equal e.Corpus.expected.Corpus.chan_deadlock_free
           vv.Classify.lint_chan_deadlock_free);
      check "replay witnesses the blocked channel" true
        vv.Classify.dyn_chan_deadlock
    | Ok entries ->
      Alcotest.failf "expected 1 corpus entry, got %d" (List.length entries)
    | Error msg -> Alcotest.failf "corpus reload failed: %s" msg)
  | cs ->
    Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_planted_refine_unsound_end_to_end () =
  let dir = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Refine_unsound ];
      corpus_dir = Some dir;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    check_string "classified as refine-unsound" "refine-unsound"
      c.Campaign.label;
    (* The planted replacement pipes the link-wide secret into the low
       export; the honest refinement check rejects it, the forced claim
       says "accepted", and the executor refutes the claim on the swapped
       unit. Shrinking keeps the refutation alive while minimizing every
       module body around the leaking assignment. *)
    check "displayed counterexample is the swapped elaboration" true
      (contains_substring
         (Fmt.str "%a" Ifc_lang.Pretty.pp_stmt c.Campaign.program.Ast.body)
         "out := secret");
    check "persisted to the corpus" true (c.Campaign.corpus_path <> None);
    (match Corpus.load dir with
    | Ok [ e ] ->
      check "corpus name carries the label" true
        (contains_substring e.Corpus.name "refine-unsound");
      check "persisted in linked syntax" true
        (Parser.looks_linked
           (In_channel.with_open_bin
              (Option.get c.Campaign.corpus_path)
              In_channel.input_all));
      (* The sidecar records HONEST verdicts on the swapped unit's
         elaboration: CFM rejects it and the oracle confirms the leak. *)
      check "honest cfm rejects the swapped unit" false
        e.Corpus.expected.Corpus.cfm;
      check "leak recorded" true e.Corpus.expected.Corpus.interfering;
      let vv = Corpus.replay_verdicts e.Corpus.binding e.Corpus.program in
      check "replay agrees on the rejection" false vv.Classify.cfm;
      check "replay witnesses the leak" true (vv.Classify.ni_violations > 0)
    | Ok entries ->
      Alcotest.failf "expected 1 corpus entry, got %d" (List.length entries)
    | Error msg -> Alcotest.failf "corpus reload failed: %s" msg)
  | cs ->
    Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_refine_cases_clean () =
  let s =
    Campaign.run
      {
        Campaign.default with
        Campaign.cases = 0;
        Campaign.refine_cases = 16;
        seed = 3;
        jobs = 2;
        ni_pairs = 3;
        max_states = 2_000;
      }
  in
  (* The honest refinement checker is sound: no generated replacement may
     be both claimed safe and refuted by the executor. *)
  check_int "no inversions on a healthy toolchain" 0 s.Campaign.inversion_cases;
  check_int "no errors" 0 s.Campaign.errors;
  check_int "every refine case completed" 16 s.Campaign.completed;
  let count label =
    Option.value ~default:0 (List.assoc_opt label s.Campaign.class_counts)
  in
  check_int "every case lands on a refine label" 16
    (count "refine-accepted" + count "refine-rejected");
  check "both refinement outcomes are exercised" true
    (count "refine-accepted" > 0 && count "refine-rejected" > 0)

let test_campaign_worker_count_determinism () =
  let config jobs =
    {
      Campaign.default with
      Campaign.cases = 24;
      seed = 5;
      jobs;
      ni_pairs = 3;
      max_states = 2_000;
    }
  in
  let a = Campaign.run (config 1) in
  let b = Campaign.run (config 3) in
  check_string "summary json identical across worker counts"
    (Campaign.summary_json a) (Campaign.summary_json b);
  check_string "report identical across worker counts"
    (Fmt.str "%a" Campaign.pp_summary a)
    (Fmt.str "%a" Campaign.pp_summary b)

let test_campaign_healthy_run_is_clean () =
  let s =
    Campaign.run
      {
        Campaign.default with
        Campaign.cases = 24;
        seed = 11;
        jobs = 2;
        ni_pairs = 3;
        max_states = 2_000;
      }
  in
  check_int "no inversions on a healthy toolchain" 0 s.Campaign.inversion_cases;
  check_int "no errors" 0 s.Campaign.errors;
  check_int "clean exit" 0 (Campaign.exit_code s);
  check_int "every case completed" 24 s.Campaign.completed;
  check_int "class counts cover all cases" 24
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Campaign.class_counts)

let test_planted_store_stale_end_to_end () =
  let store = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Store_stale ];
      store_dir = Some store;
    }
  in
  let s = Campaign.run config in
  check_int "one case ran" 1 s.Campaign.completed;
  check_int "one inversion case" 1 s.Campaign.inversion_cases;
  check_int "exit code flags the inversion" 2 (Campaign.exit_code s);
  match s.Campaign.counterexamples with
  | [ c ] ->
    check_string "classified as store-stale" "store-stale" c.Campaign.label;
    (* Shrink candidates miss in the store, so the counterexample stays
       the planted program — exactly the artifact that diverged. *)
    check_int "not shrunk past the stored artifact"
      c.Campaign.original_statements c.Campaign.shrunk_statements
  | cs ->
    Alcotest.failf "expected exactly one counterexample, got %d" (List.length cs)

let test_planted_dataflow_unsound_end_to_end () =
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      jobs = 1;
      plants = [ Plant.Dataflow_unsound ];
    }
  in
  let s = Campaign.run config in
  check_int "two cases ran" 2 s.Campaign.completed;
  check_int "two inversion cases" 2 s.Campaign.inversion_cases;
  check_int "exit code flags the inversions" 2 (Campaign.exit_code s);
  (* The first case reports a pruned arm at a statement every execution
     steps, and the exploration refutes it; the second corrupts a flow
     witness's sink span, and the replay finds no failed check there.
     Both shrink to their single middle statement. *)
  match s.Campaign.counterexamples with
  | [ prune; witness ] ->
    check_string "first case is prune-unsound" "prune-unsound"
      prune.Campaign.label;
    check_string "second case is witness-bogus" "witness-bogus"
      witness.Campaign.label;
    check_int "prune case shrinks to one statement" 1
      prune.Campaign.shrunk_statements;
    check_int "witness case shrinks to one statement" 1
      witness.Campaign.shrunk_statements;
    check_string "the witness case keeps its leak" "y := x"
      (Ifc_lang.Pretty.stmt_to_string witness.Campaign.program.Ast.body)
  | cs ->
    Alcotest.failf "expected exactly two counterexamples, got %d"
      (List.length cs)

let test_all_plants_keep_their_classes () =
  (* With every fuzz plant on, each planted case lands on its own class:
     the prune case's program differs from the store-stale case's, so it
     cannot read the poisoned store entry. *)
  let config =
    {
      Campaign.default with
      Campaign.cases = 0;
      seed = 3;
      jobs = 1;
      plants =
        Plant.
          [
            Inversion;
            Cert_inversion;
            Lint_unsound;
            Chan_unsound;
            Store_stale;
            Dataflow_unsound;
            Refine_unsound;
          ];
      store_dir = Some (fresh_dir ());
    }
  in
  let s = Campaign.run config in
  let count label =
    Option.value ~default:0 (List.assoc_opt label s.Campaign.class_counts)
  in
  check_int "eight planted cases" 8 s.Campaign.completed;
  check_int "one store-stale" 1 (count "store-stale");
  check_int "one prune-unsound" 1 (count "prune-unsound");
  check_int "one witness-bogus" 1 (count "witness-bogus")

let test_store_replay_round_trip () =
  let store = fresh_dir () in
  let config =
    {
      Campaign.default with
      Campaign.cases = 12;
      jobs = 2;
      store_dir = Some store;
    }
  in
  (* Pass 1 populates the store with honest verdicts; pass 2 replays
     every case against them. A healthy store diverges nowhere and the
     reports are byte-identical. *)
  let first = Campaign.run config in
  let second = Campaign.run config in
  check_int "first pass finds no inversions" 0 first.Campaign.inversion_cases;
  check_int "replay finds no store-stale" 0 second.Campaign.inversion_cases;
  check_string "summaries byte-identical across replay"
    (Campaign.summary_json first)
    (Campaign.summary_json second)

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "classify table" `Quick test_classify_table;
      Alcotest.test_case "classify labels total" `Quick test_classify_labels_total;
      Alcotest.test_case "oracle sec52 fs-gap" `Quick test_oracle_sec52_is_fs_gap;
      Alcotest.test_case "oracle direct leak" `Quick test_oracle_direct_leak_confirmed;
      shrink_candidates_invariant;
      minimize_bounded;
      minimize_preserves_predicate;
      Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
      Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
      Alcotest.test_case "corpus missing dir" `Quick test_corpus_missing_dir_is_empty;
      Alcotest.test_case "corpus orphan program" `Quick test_corpus_rejects_orphan_program;
      Alcotest.test_case "planted inversion end-to-end" `Quick
        test_planted_inversion_end_to_end;
      Alcotest.test_case "planted cert inversion end-to-end" `Quick
        test_planted_cert_inversion_end_to_end;
      Alcotest.test_case "planted lint-unsound end-to-end" `Quick
        test_planted_lint_unsound_end_to_end;
      Alcotest.test_case "planted chan-unsound end-to-end" `Quick
        test_planted_chan_unsound_end_to_end;
      Alcotest.test_case "planted store-stale end-to-end" `Quick
        test_planted_store_stale_end_to_end;
      Alcotest.test_case "planted dataflow-unsound end-to-end" `Quick
        test_planted_dataflow_unsound_end_to_end;
      Alcotest.test_case "planted refine-unsound end-to-end" `Quick
        test_planted_refine_unsound_end_to_end;
      Alcotest.test_case "refine cases clean" `Quick test_refine_cases_clean;
      Alcotest.test_case "store replay round-trip" `Quick
        test_store_replay_round_trip;
      Alcotest.test_case "worker-count determinism" `Quick
        test_campaign_worker_count_determinism;
      Alcotest.test_case "healthy campaign clean" `Quick
        test_campaign_healthy_run_is_clean;
      Alcotest.test_case "all plants keep their classes" `Quick
        test_all_plants_keep_their_classes;
    ] )
