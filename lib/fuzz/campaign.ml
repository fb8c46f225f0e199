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
module Plant = Ifc_support.Plant
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
  plants : Plant.t list;
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
    plants = [];
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

(* Verdicts a planted case forces on the oracle; [None] leaves that leg
   honest. *)
type forced = {
  cfm : bool option;
  cert : bool option;
  lint : bool option;
  dataflow : [ `Prune | `Witness ] option;
}

let honest = { cfm = None; cert = None; lint = None; dataflow = None }

let run_oracle config forced ?stored_cfm ~ni_seed binding program =
  Oracle.run ?override_cfm:forced.cfm ?override_cert:forced.cert
    ?override_lint:forced.lint ?override_dataflow:forced.dataflow ?stored_cfm
    ~ni_seed ~ni_pairs:config.ni_pairs ~max_states:config.max_states binding
    program

(* Retained only for inversions: exactly what re-running the predicate
   during shrinking needs. For program cases that is the program, its
   binding, the forced verdicts (planted cases), the store lookup for
   replaying candidates against the persistent store, and the case's
   oracle seed. For refinement cases it is the module pair, the forced
   claim (the planted case) and the oracle seed. *)
type payload =
  | P_program of
      Ast.program * string Binding.t * forced * (Ast.program -> bool option) * int
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

(* Every planted program case is one middle statement padded by the
   same four, which the shrinker must strip: [p := 3; skip; MIDDLE;
   q := p + 1; skip], with the variables in [high] bound high. *)
let padded ?(high = []) middle =
  let body =
    Ast.seq
      [
        Ast.assign "p" (Ast.Int 3);
        Ast.skip;
        middle;
        Ast.assign "q" (Ast.Binop (Ast.Add, Ast.Var "p", Ast.Int 1));
        Ast.skip;
      ]
  in
  let program = Wellformed.infer_decls (Ast.program body) in
  let binding =
    Binding.make lattice ~default:lattice.Lattice.bottom
      (List.map (fun v -> (v, lattice.Lattice.top)) high)
  in
  (program, binding)

(* A planted case: a program row (profile label, program, binding,
   forced verdicts), or the planted module pair ({!Modfuzz.planted})
   with its refinement claim forced to accepted. *)
type row =
  | Program_row of string * Ast.program * string Binding.t * forced
  | Refine_row

let planted ?high label middle forced =
  let program, binding = padded ?high middle in
  Program_row (label, program, binding, forced)

let leak = Ast.assign "y" (Ast.Var "x")

(* The store-stale plant's middle statement: all-low, so the store entry
   written with the flipped verdict is the only thing that is wrong. No
   other planted row may share its program, or with both plants on that
   row would read the poisoned entry too. *)
let store_stale_middle = Ast.assign "y" (Ast.Int 1)

(* The planted cases of one plant. Each classifies as its inversion and
   shrinks to the single middle statement, except store-stale (shrink
   candidates miss in the store, so it stays at the planted program) and
   refine-unsound (a module pair):
   - inversion: [y := x] leaks, with CFM forced to certified;
   - cert-inversion: an all-low program whose certificate round-trip is
     forced to fail;
   - lint-unsound: [wait(s)] on a semaphore nobody signals, with the
     concurrency analyzer forced to all-safe;
   - chan-unsound: [recv(c, y)] on a channel nobody sends on, forced the
     same way;
   - dataflow-unsound: a bogus pruned arm at a statement every execution
     steps (prune-unsound), and an honestly rejected leak whose flow
     witness has its sink span corrupted (witness-bogus). *)
let rows_of_plant = function
  | Plant.Inversion ->
    [ planted ~high:[ "x" ] "planted" leak { honest with cfm = Some true } ]
  | Plant.Cert_inversion ->
    [
      planted "planted-cert" (Ast.assign "y" (Ast.Int 0))
        { honest with cert = Some false };
    ]
  | Plant.Lint_unsound ->
    [ planted "planted-lint" (Ast.wait "s") { honest with lint = Some true } ]
  | Plant.Chan_unsound ->
    [ planted "planted-chan" (Ast.recv "c" "y") { honest with lint = Some true } ]
  | Plant.Store_stale -> [ planted "planted-store" store_stale_middle honest ]
  | Plant.Dataflow_unsound ->
    [
      planted "planted-prune" (Ast.assign "y" (Ast.Int 2))
        { honest with dataflow = Some `Prune };
      planted ~high:[ "x" ] "planted-witness" leak
        { honest with dataflow = Some `Witness };
    ]
  | Plant.Refine_unsound -> [ Refine_row ]
  | Plant.Stall _ -> []

(* The case key: the content address the pipeline would use for a
   CFM-only job over this (program, binding) on the campaign lattice. It
   keys store replay, so a fuzz store and a batch/serve store speak about
   the same artifacts, and it dedups and names counterexamples. *)
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

(* One program case, random or planted: run the oracle matrix under the
   row's forced verdicts and classify. *)
let run_program_case ?store config rng index profile_name program binding
    forced =
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
  let replay = Option.is_some store && forced.cfm = None in
  let stored_cfm = if replay then lookup program else None in
  let verdicts = run_oracle config forced ?stored_cfm ~ni_seed binding program in
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
                forced,
                (if replay then lookup else fun _ -> None),
                ni_seed )));
  }

(* The index space: [cases] random program cases, then the rows of the
   enabled plants in registry order, then [refine_cases] honest
   refinement cases. *)
let run_case ?store (config : config) rows index =
  let rng = case_rng config.seed index in
  let row = index - config.cases in
  if row >= Array.length rows then
    run_refine_case config ~planted:false rng index
  else if row >= 0 then
    match rows.(row) with
    | Refine_row -> run_refine_case config ~planted:true rng index
    | Program_row (profile_name, program, binding, forced) ->
      run_program_case ?store config rng index profile_name program binding
        forced
  else
    let profile_name, cfg_gen =
      List.nth profiles (index mod List.length profiles)
    in
    let size = Prng.range rng config.size_min config.size_max in
    let program = generate_case rng profile_name cfg_gen ~size in
    let binding = random_binding rng program in
    run_program_case ?store config rng index profile_name program binding
      honest

(* ------------------------------------------------------------------ *)
(* Shrinking and persistence *)

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
      | P_program (program, binding, forced, lookup, ni_seed) ->
        let keep p =
          Wellformed.is_valid p
          && matches_label
               (run_oracle config forced ?stored_cfm:(lookup p) ~ni_seed
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
    let digest = store_digest shrunk binding in
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
  let plants = List.sort_uniq Plant.compare config.plants in
  let rows = Array.of_list (List.concat_map rows_of_plant plants) in
  let store_stale = List.mem Plant.Store_stale plants in
  (* The replay store: explicit [store_dir], or — so the planted case is
     self-contained — a seed-derived scratch directory. *)
  let store =
    let dir =
      match config.store_dir with
      | Some _ as some -> some
      | None ->
        if store_stale then
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
  | Some st when store_stale ->
    (* Poison the store before anyone reads it: the planted program's
       entry carries the flipped verdict. *)
    let program, binding = padded store_stale_middle in
    let honest = Ifc_core.Cfm.certified binding program.Ast.body in
    Store.add st
      ~digest:(store_digest program binding)
      (stored_cfm_entry (not honest))
  | _ -> ());
  let total = config.cases + Array.length rows + config.refine_cases in
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
      let o = run_case ?store config rows index in
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
