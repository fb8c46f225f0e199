(* The campaign driver: generate, fan out, classify, shrink, persist. *)

module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Metrics = Ifc_lang.Metrics
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Wellformed = Ifc_lang.Wellformed
module Binding = Ifc_core.Binding
module Lattice = Ifc_lattice.Lattice
module Sset = Ifc_support.Sset
module Prng = Ifc_support.Prng
module Pool = Ifc_pipeline.Pool
module Telemetry = Ifc_pipeline.Telemetry
module Job = Ifc_pipeline.Job
module Store = Ifc_store.Store

type config = {
  cases : int;
  seed : int;
  jobs : int;
  size_min : int;
  size_max : int;
  ni_pairs : int;
  max_states : int;
  time_budget : float option;
  shrink_budget : int;
  corpus_dir : string option;
  store_dir : string option;
  plant_inversion : bool;
  plant_cert_inversion : bool;
  plant_lint_unsound : bool;
  plant_chan_unsound : bool;
  plant_store_stale : bool;
  plant_dataflow_unsound : bool;
  plant_refine_unsound : bool;
  refine_cases : int;
}

let default =
  {
    cases = 200;
    seed = 0;
    jobs = 1;
    size_min = 4;
    size_max = 12;
    ni_pairs = 4;
    max_states = 4_000;
    time_budget = None;
    shrink_budget = 300;
    corpus_dir = None;
    store_dir = None;
    plant_inversion = false;
    plant_cert_inversion = false;
    plant_lint_unsound = false;
    plant_chan_unsound = false;
    plant_store_stale = false;
    plant_dataflow_unsound = false;
    plant_refine_unsound = false;
    refine_cases = 0;
  }

(* The campaign lattice. All fuzzing runs over the paper's two-point
   scheme: it is where every known analyzer disagreement already shows,
   and a single scheme keeps oracle budgets predictable. *)
let lattice = Ifc_lattice.Builtin.two

let lattice_name = "two"

let profiles =
  [
    ("seq", Gen.sequential);
    ("conc", Gen.default);
    ("arr", Gen.with_arrays);
    ("sem", { Gen.default with Gen.sems = [ "s"; "t"; "u" ]; max_branch = 3 });
    ("chan", Gen.with_channels);
  ]

type counterexample = {
  case_index : int;
  profile : string;
  label : string;
  program : Ast.program;
  binding : string Binding.t;
  original_statements : int;
  shrunk_statements : int;
  shrink : Shrink.stats;
  digest : string;
  corpus_path : string option;
}

type summary = {
  seed : int;
  cases : int;
  completed : int;
  timed_out : int;
  errors : int;
  class_counts : (string * int) list;
  inversion_cases : int;
  gap_cases : int;
  oracle_pairs_tested : int;
  oracle_pairs_skipped : int;
  shrink_steps : int;
  shrink_evals : int;
  counterexamples : counterexample list;
  elapsed_ns : int64;
}

(* ------------------------------------------------------------------ *)
(* Per-case work *)

(* Everything a case needs is derived from (campaign seed, index) alone,
   so cases are order- and worker-independent. *)
let case_rng seed index = Prng.create ((seed * 0x1000003) lxor index)

(* Retained only for inversions: exactly what re-running the predicate
   during shrinking needs. For program cases that is the program, its
   binding, the forced CFM, cert and lint verdicts (planted cases), the
   store lookup for replaying candidates against the persistent store,
   and the case's oracle seed. For refinement cases it is the module
   pair, the forced claim (the planted case) and the oracle seed. *)
type payload =
  | P_program of
      (Ast.program
      * string Binding.t
      * bool option
      * bool option
      * bool option
      * [ `Prune | `Witness ] option
      * (Ast.program -> bool option)
      * int)
  | P_refine of Modfuzz.case * bool option * int

type outcome = {
  index : int;
  o_profile : string;
  primary : string;
  inversion_labels : string list;
  gap_labels : string list;
  verdicts : Classify.verdicts;
  statements : int;
  payload : payload option;
}

type slot = Done of outcome | Timed_out

let random_binding rng (p : Ast.program) =
  let ints, arrays, sems, chans = Vars.declared p in
  let names =
    Sset.elements
      (Sset.union ints (Sset.union arrays (Sset.union sems chans)))
  in
  Binding.make lattice ~default:lattice.Lattice.bottom
    (List.map
       (fun v ->
         (v, if Prng.bool rng then lattice.Lattice.top else lattice.Lattice.bottom))
       names)

let generate_case rng profile_name cfg_gen ~size =
  let gen =
    if cfg_gen.Gen.allow_concurrency && cfg_gen.Gen.sems <> [] then
      Gen.program_balanced
    else Gen.program
  in
  ignore profile_name;
  gen rng cfg_gen ~size

(* The planted soundness inversion (test hook): a padded program whose
   middle statement leaks [x] (high) into [y] (low) directly, with the
   CFM verdict forced to "certified". Every honest analyzer and the
   oracle see the leak, so the case classifies as every inversion kind at
   once and shrinks to the single statement [y := x]. *)
let planted_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.assign "y" (Ast.Var "x");
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding =
    Binding.make lattice ~default:lattice.Lattice.bottom
      [ ("x", lattice.Lattice.top) ]
  in
  (program, binding)

(* The planted certificate inversion (test hook): a padded, provable
   all-low program whose certificate round-trip verdict is forced to
   "rejected". Every honest analyzer agrees the program is fine, so the
   only inversion is cert-inversion, and it shrinks to a single
   statement. *)
(* The planted lint-unsoundness (test hook): a padded program whose
   middle statement waits on a semaphore nobody ever signals — a
   guaranteed deadlock — with the concurrency analyzer's claims forced to
   all-safe. The dynamic evidence explorations reach the stuck state, so
   the case classifies as deadlock-unsound and shrinks to the single
   [wait(s)]. *)
let planted_lint_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.wait "s";
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding = Binding.make lattice ~default:lattice.Lattice.bottom [] in
  (program, binding)

(* The planted channel-unsoundness (test hook): a padded program whose
   middle statement receives from a channel nobody ever sends on — a
   guaranteed communication deadlock — with the analyzer's claims forced
   to all-safe. The dynamic evidence explorations reach the stuck state
   with the channel blocked, so the case classifies as
   chan-deadlock-unsound and shrinks to the single [recv(c, y)]. *)
let planted_chan_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.recv "c" "y";
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding = Binding.make lattice ~default:lattice.Lattice.bottom [] in
  (program, binding)

(* The planted store-staleness (test hook): a padded all-low program
   whose store entry is pre-written with the {e opposite} CFM verdict
   before the campaign runs. Replay finds the stale verdict, the honest
   analyzers disagree with it, and the case classifies as [store-stale].
   Shrink candidates miss in the store, so the counterexample stays at
   the planted program — exactly the stored artifact that diverged. *)
let planted_store_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.assign "y" (Ast.Int 1);
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding = Binding.make lattice ~default:lattice.Lattice.bottom [] in
  (program, binding)

(* The store replay key: the same content address the pipeline would use
   for a CFM-only job over this (program, binding) on the campaign
   lattice — so a fuzz store and a batch/serve store speak about the
   same artifacts. *)
let store_digest program binding =
  Job.digest
    (Job.make ~id:0 ~name:"fuzz" ~lattice ~binding ~analyses:[ Job.Cfm ]
       program)

let stored_cfm_entry verdict =
  [
    {
      Job.analysis = "cfm";
      verdict;
      checks = 0;
      duration_ns = 0L;
      artifact = None;
    };
  ]

let planted_cert_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.assign "y" (Ast.Int 0);
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding = Binding.make lattice ~default:lattice.Lattice.bottom [] in
  (program, binding)

(* The planted prune-unsoundness (test hook): a padded all-low
   straight-line program with the oracle's dataflow leg forced to report
   a pruned arm at the span of a statement every execution steps. The
   exploration's visit witness refutes the fake claim, so the case
   classifies as prune-unsound and shrinks to a single statement. *)
let planted_prune_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.assign "y" (Ast.Int 1);
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding = Binding.make lattice ~default:lattice.Lattice.bottom [] in
  (program, binding)

(* The planted witness corruption (test hook): a padded program whose
   middle statement leaks [x] (high) into [y] (low), so certification
   honestly rejects and a flow witness is emitted — with the oracle's
   dataflow leg forced to corrupt the witness's sink span before replay.
   The replay finds no failed check at the shifted span, so the case
   classifies as witness-bogus and shrinks to the single [y := x]. *)
let planted_witness_case () =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        Ast.assign "y" (Ast.Var "x");
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding =
    Binding.make lattice ~default:lattice.Lattice.bottom
      [ ("x", lattice.Lattice.top) ]
  in
  (program, binding)

(* One refinement case: generate (or plant) a module pair, take the
   compositional toolchain's claim, refute claimed-safe swaps with the
   executor. The verdict tuple is neutral everywhere but the refine
   fields, so the only inversion a refinement case can raise is
   [refine-unsound]. *)
let run_refine_case config ~planted rng index =
  let case, override_claim =
    if planted then (Modfuzz.planted lattice, Some true)
    else (Modfuzz.generate lattice rng, None)
  in
  let ni_seed = Prng.bits rng land 0x3FFFFFFF in
  let claimed, leak, tested, skipped =
    Modfuzz.evaluate ?override_claim ~lattice ~ni_seed
      ~ni_pairs:config.ni_pairs ~max_states:config.max_states case
  in
  let verdicts = Modfuzz.verdicts ~claimed ~leak ~tested ~skipped in
  let cls = Classify.classify verdicts in
  let inversion_labels =
    List.map Classify.inversion_label cls.Classify.inversions
  in
  {
    index;
    o_profile = (if planted then "planted-refine" else "refine");
    primary = Classify.primary verdicts cls;
    inversion_labels;
    gap_labels = List.map Classify.gap_label cls.Classify.gaps;
    verdicts;
    statements = Modfuzz.statements case;
    payload =
      (if inversion_labels = [] then None
       else Some (P_refine (case, override_claim, ni_seed)));
  }

let run_case ?store config index =
  let planted_cfm = config.plant_inversion && index = config.cases in
  let planted_cert =
    config.plant_cert_inversion
    && index = config.cases + if config.plant_inversion then 1 else 0
  in
  let planted_lint =
    config.plant_lint_unsound
    && index
       = config.cases
         + (if config.plant_inversion then 1 else 0)
         + if config.plant_cert_inversion then 1 else 0
  in
  let planted_chan =
    config.plant_chan_unsound
    && index
       = config.cases
         + (if config.plant_inversion then 1 else 0)
         + (if config.plant_cert_inversion then 1 else 0)
         + if config.plant_lint_unsound then 1 else 0
  in
  let planted_store =
    config.plant_store_stale
    && index
       = config.cases
         + (if config.plant_inversion then 1 else 0)
         + (if config.plant_cert_inversion then 1 else 0)
         + (if config.plant_lint_unsound then 1 else 0)
         + if config.plant_chan_unsound then 1 else 0
  in
  let dataflow_base =
    config.cases
    + (if config.plant_inversion then 1 else 0)
    + (if config.plant_cert_inversion then 1 else 0)
    + (if config.plant_lint_unsound then 1 else 0)
    + (if config.plant_chan_unsound then 1 else 0)
    + if config.plant_store_stale then 1 else 0
  in
  (* The dataflow plant occupies two indices: one forced bogus prune,
     one forced witness corruption. *)
  let planted_prune = config.plant_dataflow_unsound && index = dataflow_base in
  let planted_witness =
    config.plant_dataflow_unsound && index = dataflow_base + 1
  in
  let planted_refine =
    config.plant_refine_unsound
    && index = dataflow_base + if config.plant_dataflow_unsound then 2 else 0
  in
  (* Honest refinement cases occupy the tail of the index space, after
     every planted case. *)
  let refine_base =
    dataflow_base
    + (if config.plant_dataflow_unsound then 2 else 0)
    + if config.plant_refine_unsound then 1 else 0
  in
  let rng = case_rng config.seed index in
  if planted_refine || index >= refine_base then
    run_refine_case config ~planted:planted_refine rng index
  else
  let ( profile_name,
        program,
        binding,
        override_cfm,
        override_cert,
        override_lint,
        override_dataflow ) =
    if planted_cfm then
      let program, binding = planted_case () in
      ("planted", program, binding, Some true, None, None, None)
    else if planted_cert then
      let program, binding = planted_cert_case () in
      ("planted-cert", program, binding, None, Some false, None, None)
    else if planted_lint then
      let program, binding = planted_lint_case () in
      ("planted-lint", program, binding, None, None, Some true, None)
    else if planted_chan then
      let program, binding = planted_chan_case () in
      ("planted-chan", program, binding, None, None, Some true, None)
    else if planted_store then
      let program, binding = planted_store_case () in
      ("planted-store", program, binding, None, None, None, None)
    else if planted_prune then
      let program, binding = planted_prune_case () in
      ("planted-prune", program, binding, None, None, None, Some `Prune)
    else if planted_witness then
      let program, binding = planted_witness_case () in
      ("planted-witness", program, binding, None, None, None, Some `Witness)
    else begin
      let profile_name, cfg_gen =
        List.nth profiles (index mod List.length profiles)
      in
      let size = Prng.range rng config.size_min config.size_max in
      let program = generate_case rng profile_name cfg_gen ~size in
      (profile_name, program, random_binding rng program, None, None, None, None)
    end
  in
  let ni_seed = Prng.bits rng land 0x3FFFFFFF in
  (* Store replay: ask the persistent store for a prior CFM verdict on
     this exact (program, binding). Divergence from the fresh verdict is
     the store-stale inversion; a miss writes the honest verdict back so
     the next campaign over the same store replays it. Forced-CFM cases
     skip the store entirely — a planted lie must never poison it. *)
  let lookup p =
    match store with
    | None -> None
    | Some st -> (
      match Store.find st ~digest:(store_digest p binding) with
      | Some (r :: _) when String.equal r.Job.analysis "cfm" ->
        Some r.Job.verdict
      | Some _ | None -> None)
  in
  let replay = Option.is_some store && override_cfm = None in
  let stored_cfm = if replay then lookup program else None in
  let verdicts =
    Oracle.run ?override_cfm ?override_cert ?override_lint ?override_dataflow
      ?stored_cfm ~ni_seed ~ni_pairs:config.ni_pairs
      ~max_states:config.max_states binding program
  in
  (if replay && stored_cfm = None then
     match store with
     | Some st ->
       Store.add st
         ~digest:(store_digest program binding)
         (stored_cfm_entry verdicts.Classify.cfm)
     | None -> ());
  let cls = Classify.classify verdicts in
  let inversion_labels = List.map Classify.inversion_label cls.Classify.inversions in
  let gap_labels = List.map Classify.gap_label cls.Classify.gaps in
  {
    index;
    o_profile = profile_name;
    primary = Classify.primary verdicts cls;
    inversion_labels;
    gap_labels;
    verdicts;
    statements = (Metrics.of_program program).Metrics.statements;
    payload =
      (if inversion_labels = [] then None
       else
         Some
           (P_program
              ( program,
                binding,
                override_cfm,
                override_cert,
                override_lint,
                override_dataflow,
                (if replay then lookup else fun _ -> None),
                ni_seed )));
  }

(* ------------------------------------------------------------------ *)
(* Shrinking and persistence *)

let binding_digest_text binding =
  Binding.bindings binding
  |> List.map (fun (v, c) -> v ^ ":" ^ c)
  |> String.concat ","

let case_digest program binding =
  Digest.to_hex
    (Digest.string (Pretty.program_to_string program ^ "|" ^ binding_digest_text binding))

let shrink_counterexample config sink seen (o : outcome) =
  match o.payload with
  | None -> None
  | Some payload ->
    let label = List.hd o.inversion_labels in
    let matches_label v =
      List.exists
        (fun inv -> String.equal (Classify.inversion_label inv) label)
        (Classify.classify v).Classify.inversions
    in
    (* Minimize the payload down to (shrunk display program, binding,
       corpus writer, sizes) — the program path shrinks the program
       itself, the refinement path shrinks the module pair and displays
       and persists the swapped unit. *)
    let program, binding, shrunk, stats, write_corpus =
      match payload with
      | P_program
          ( program,
            binding,
            override_cfm,
            override_cert,
            override_lint,
            override_dataflow,
            lookup,
            ni_seed ) ->
        let keep p =
          Wellformed.is_valid p
          && matches_label
               (Oracle.run ?override_cfm ?override_cert ?override_lint
                  ?override_dataflow ?stored_cfm:(lookup p) ~ni_seed
                  ~ni_pairs:config.ni_pairs ~max_states:config.max_states
                  binding p)
        in
        let shrunk, stats =
          Shrink.minimize ~budget:config.shrink_budget ~keep program
        in
        ( program,
          binding,
          shrunk,
          stats,
          fun ~dir ~name ~expected ~note ->
            Corpus.write ~dir ~name ~lattice_name ~binding ~expected ~note
              shrunk )
      | P_refine (case, override_claim, ni_seed) ->
        let keep case =
          let claimed, leak, tested, skipped =
            Modfuzz.evaluate ?override_claim ~lattice ~ni_seed
              ~ni_pairs:config.ni_pairs ~max_states:config.max_states case
          in
          matches_label (Modfuzz.verdicts ~claimed ~leak ~tested ~skipped)
        in
        let small, stats =
          Modfuzz.shrink ~budget:config.shrink_budget ~keep case
        in
        let binding = Modfuzz.case_binding ~lattice small in
        ( Modfuzz.elaborated case,
          binding,
          Modfuzz.elaborated small,
          stats,
          fun ~dir ~name ~expected ~note ->
            Corpus.write_linked ~dir ~name ~lattice_name ~binding ~expected
              ~note (Modfuzz.swapped small) )
    in
    let digest = case_digest shrunk binding in
    let fresh = not (Hashtbl.mem seen digest) in
    Hashtbl.replace seen digest ();
    let corpus_path =
      match config.corpus_dir with
      | Some dir when fresh ->
        let honest = Corpus.replay_verdicts binding shrunk in
        let expected = Corpus.expected_of_verdicts ~cls:label shrunk honest in
        let name = Printf.sprintf "inv-%s-%s" label (String.sub digest 0 12) in
        let note =
          Printf.sprintf "campaign seed %d, case %d, profile %s" config.seed
            o.index o.o_profile
        in
        Some (write_corpus ~dir ~name ~expected ~note)
      | _ -> None
    in
    let original_statements = (Metrics.of_program program).Metrics.statements in
    let shrunk_statements = (Metrics.of_program shrunk).Metrics.statements in
    Telemetry.emit sink
      [
        ("event", Telemetry.String "shrink");
        ("case", Telemetry.Int o.index);
        ("label", Telemetry.String label);
        ("from_statements", Telemetry.Int original_statements);
        ("to_statements", Telemetry.Int shrunk_statements);
        ("steps", Telemetry.Int stats.Shrink.steps);
        ("evals", Telemetry.Int stats.Shrink.evals);
        ( "corpus",
          match corpus_path with
          | Some p -> Telemetry.String p
          | None -> Telemetry.Null );
      ];
    Some
      {
        case_index = o.index;
        profile = o.o_profile;
        label;
        program = shrunk;
        binding;
        original_statements;
        shrunk_statements;
        shrink = stats;
        digest;
        corpus_path;
      }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let summary_json s =
  let open Telemetry in
  json_to_string
    (Obj
       [
         ("fuzz", String "summary");
         ("seed", Int s.seed);
         ("cases", Int s.cases);
         ("completed", Int s.completed);
         ("timed_out", Int s.timed_out);
         ("errors", Int s.errors);
         ("inversions", Int s.inversion_cases);
         ("gaps", Int s.gap_cases);
         ( "classes",
           Obj (List.map (fun (label, n) -> (label, Int n)) s.class_counts) );
         ( "oracle",
           Obj
             [
               ("pairs_tested", Int s.oracle_pairs_tested);
               ("pairs_skipped", Int s.oracle_pairs_skipped);
             ] );
         ( "shrink",
           Obj [ ("steps", Int s.shrink_steps); ("evals", Int s.shrink_evals) ]
         );
         ( "counterexamples",
           List
             (List.map
                (fun c ->
                  Obj
                    [
                      ("case", Int c.case_index);
                      ("label", String c.label);
                      ("statements", Int c.shrunk_statements);
                      ("digest", String c.digest);
                      ( "corpus",
                        match c.corpus_path with
                        | Some p -> String p
                        | None -> Null );
                    ])
                s.counterexamples) );
       ])

let pp_summary ppf s =
  Fmt.pf ppf "fuzz campaign: seed=%d cases=%d lattice=%s@." s.seed s.cases
    lattice_name;
  Fmt.pf ppf "  completed=%d timed-out=%d errors=%d@." s.completed s.timed_out
    s.errors;
  Fmt.pf ppf "  oracle pairs: tested=%d skipped=%d@." s.oracle_pairs_tested
    s.oracle_pairs_skipped;
  Fmt.pf ppf "  classes:@.";
  List.iter
    (fun (label, n) -> Fmt.pf ppf "    %-24s %d@." label n)
    s.class_counts;
  Fmt.pf ppf "  inversions=%d gaps=%d@." s.inversion_cases s.gap_cases;
  List.iter
    (fun c ->
      Fmt.pf ppf "  counterexample case=%d class=%s statements %d -> %d%s@."
        c.case_index c.label c.original_statements c.shrunk_statements
        (match c.corpus_path with
        | Some p -> " corpus=" ^ p
        | None -> "");
      Fmt.pf ppf "    %s@." (Pretty.stmt_to_string c.program.Ast.body))
    s.counterexamples

let exit_code s =
  if s.inversion_cases > 0 then 2 else if s.errors > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* The campaign *)

let run ?(sink = Telemetry.null_sink ()) (config : config) =
  if config.cases < 0 then invalid_arg "Campaign.run: negative case count";
  if config.refine_cases < 0 then
    invalid_arg "Campaign.run: negative refine case count";
  if config.jobs < 1 then invalid_arg "Campaign.run: jobs < 1";
  if config.size_min < 1 || config.size_max < config.size_min then
    invalid_arg "Campaign.run: bad size range";
  let timer = Telemetry.start () in
  (* The replay store: explicit [store_dir], or — so the planted case is
     self-contained — a seed-derived scratch directory. *)
  let store =
    let dir =
      match config.store_dir with
      | Some _ as some -> some
      | None ->
        if config.plant_store_stale then
          Some
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "ifc-fuzz-store-%d" config.seed))
        else None
    in
    Option.map
      (fun dir ->
        match Store.open_ dir with
        | Ok st -> st
        | Error msg -> invalid_arg ("Campaign.run: store: " ^ msg))
      dir
  in
  (match store with
  | Some st when config.plant_store_stale ->
    (* Poison the store before anyone reads it: the planted program's
       entry carries the flipped verdict. *)
    let program, binding = planted_store_case () in
    let honest = Ifc_core.Cfm.certified binding program.Ast.body in
    Store.add st
      ~digest:(store_digest program binding)
      (stored_cfm_entry (not honest))
  | _ -> ());
  let total =
    config.cases
    + (if config.plant_inversion then 1 else 0)
    + (if config.plant_cert_inversion then 1 else 0)
    + (if config.plant_lint_unsound then 1 else 0)
    + (if config.plant_chan_unsound then 1 else 0)
    + (if config.plant_store_stale then 1 else 0)
    + (if config.plant_dataflow_unsound then 2 else 0)
    + (if config.plant_refine_unsound then 1 else 0)
    + config.refine_cases
  in
  let deadline =
    Option.map
      (fun seconds ->
        Int64.add (Telemetry.now_ns ()) (Int64.of_float (seconds *. 1e9)))
      config.time_budget
  in
  let slots = Array.make total None in
  let errors = Atomic.make 0 in
  let task index () =
    let past_deadline =
      match deadline with
      | Some d -> Telemetry.now_ns () > d
      | None -> false
    in
    if past_deadline then slots.(index) <- Some Timed_out
    else begin
      let o = run_case ?store config index in
      slots.(index) <- Some (Done o);
      Telemetry.emit sink
        [
          ("event", Telemetry.String "case");
          ("case", Telemetry.Int index);
          ("profile", Telemetry.String o.o_profile);
          ("class", Telemetry.String o.primary);
          ("statements", Telemetry.Int o.statements);
          ("ni_tested", Telemetry.Int o.verdicts.Classify.ni_tested);
          ("ni_skipped", Telemetry.Int o.verdicts.Classify.ni_skipped);
        ]
    end
  in
  let on_error ~worker exn =
    Atomic.incr errors;
    Telemetry.emit sink
      [
        ("event", Telemetry.String "error");
        ("worker", Telemetry.Int worker);
        ("exn", Telemetry.String (Printexc.to_string exn));
      ]
  in
  Pool.run ~on_error ~workers:config.jobs (List.init total task);
  (* Aggregation and shrinking run on this domain, in case-index order:
     the report never depends on completion order. *)
  let counts = Hashtbl.create 16 in
  let bump label = Hashtbl.replace counts label (1 + Option.value ~default:0 (Hashtbl.find_opt counts label)) in
  let completed = ref 0 in
  let timed_out = ref 0 in
  let inversion_cases = ref 0 in
  let gap_cases = ref 0 in
  let pairs_tested = ref 0 in
  let pairs_skipped = ref 0 in
  let outcomes = ref [] in
  Array.iter
    (function
      | None -> incr timed_out
      | Some Timed_out -> incr timed_out
      | Some (Done o) ->
        incr completed;
        bump o.primary;
        if o.inversion_labels <> [] then incr inversion_cases;
        if o.gap_labels <> [] then incr gap_cases;
        pairs_tested := !pairs_tested + o.verdicts.Classify.ni_tested;
        pairs_skipped := !pairs_skipped + o.verdicts.Classify.ni_skipped;
        outcomes := o :: !outcomes)
    slots;
  let seen = Hashtbl.create 8 in
  let counterexamples =
    List.rev !outcomes
    |> List.filter_map (shrink_counterexample config sink seen)
  in
  let shrink_steps =
    List.fold_left (fun acc c -> acc + c.shrink.Shrink.steps) 0 counterexamples
  in
  let shrink_evals =
    List.fold_left (fun acc c -> acc + c.shrink.Shrink.evals) 0 counterexamples
  in
  let summary =
    {
      seed = config.seed;
      cases = total;
      completed = !completed;
      timed_out = !timed_out;
      errors = Atomic.get errors;
      class_counts =
        List.map
          (fun label ->
            (label, Option.value ~default:0 (Hashtbl.find_opt counts label)))
          Classify.class_labels;
      inversion_cases = !inversion_cases;
      gap_cases = !gap_cases;
      oracle_pairs_tested = !pairs_tested;
      oracle_pairs_skipped = !pairs_skipped;
      shrink_steps;
      shrink_evals;
      counterexamples;
      elapsed_ns = Telemetry.elapsed_ns timer;
    }
  in
  Telemetry.emit sink
    [
      ("event", Telemetry.String "summary");
      ("json", Telemetry.String (summary_json summary));
    ];
  summary
