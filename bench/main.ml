(* Benchmark and reproduction harness.

   One executable regenerates every figure, theorem, and quantitative
   claim of the paper (see DESIGN.md §5 for the experiment index):

     F2        the Figure 2 mod/flow/cert table, computed
     F3        the Figure 3 verdict matrix and §4.3 requirement chain
     T1/T2     Theorems 1 + 2: CFM certification <=> checked flow proof,
               over a random corpus
     S52       relative strength: CFM-rejected but semantically secure
     C1        §6's complexity claim: certification time is linear in
               program length (Denning, CFM, proof generation+checking)
     SND       empirical soundness: certified programs pass the
               (termination-insensitive) noninterference test
     PIPE      the batch pipeline: throughput at 1/2/4 domains with
               verdict-multiset determinism, and result-cache hit rates
     STORE     the job-level result store: cold (compute and persist)
               vs warm (disk hits, certificates re-checked) vs
               preloaded (memory hits) job rates
     MODSYS    compositional certification: store-backed linking whose
               cost follows interface size rather than module body
               size, and the one-module-edit recompute claim
     FUZZ      the differential fuzzing campaign: cases/s through the
               full analyzer matrix, oracle skip rate, and the cost of
               shrinking a planted soundness inversion
     LINT      the static concurrency analyzer: statements/s and
               findings/s over a cobegin-heavy corpus
     CERT      proof certificates: emission and independent re-check
               throughput, certificate bytes per program statement
     LOAD      the certification daemon: pipelined clients against an
               ifc serve subprocess, throughput and latency quantiles
     CLASSES   security classes as printed names: ns and words per
               leq/join/meet, lattice rendering, CFM over string classes
     FRONTEND  what every request pays before the cache: µs and words
               per program to lex, parse, check well-formedness, print
               and digest
     micro     Bechamel micro-benchmarks of every analysis entry point

   Usage: dune exec bench/main.exe [-- SECTION ...]
   Sections: tables fig3 theorems strength scaling ni pipeline store
   modsys fuzz lint cert load classes frontend micro all
   (default all). Add "quick" to shrink corpus and sweep sizes.

   Besides the human tables, every section prints one or more
   machine-readable lines of the form

     {"section": "scaling", "metric": "cfm_ns_per_node_ratio", "value": 1.1}

   so successive PRs can track the performance trajectory by grepping
   bench output into BENCH_*.json files. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Extended = Ifc_lattice.Extended
module Mls = Ifc_lattice.Mls
module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Gen = Ifc_lang.Gen
module Metrics = Ifc_lang.Metrics
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Denning = Ifc_core.Denning
module Infer = Ifc_core.Infer
module Paper = Ifc_core.Paper
module Generate = Ifc_logic_gen.Generate
module Check = Ifc_logic.Check
module Invariance = Ifc_logic_gen.Invariance
module Entail = Ifc_logic.Entail
module Scheduler = Ifc_exec.Scheduler
module Ni = Ifc_exec.Noninterference
module Campaign = Ifc_fuzz.Campaign
module Job = Ifc_pipeline.Job
module Cache = Ifc_pipeline.Cache
module Batch = Ifc_pipeline.Batch

let two = Chain.two

let low = two.Lattice.bottom

let high = two.Lattice.top

let banner title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '-')

(* Machine-readable metric lines, one JSON object per line, greppable
   into BENCH_*.json by future PRs tracking the perf trajectory. *)
let metric section name value =
  Fmt.pr "{\"section\": %S, \"metric\": %S, \"value\": %s}@." section name value

let metric_i section name v = metric section name (string_of_int v)

let metric_f section name v = metric section name (Printf.sprintf "%.4f" v)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let random_binding rng lattice stmt =
  let arr = Array.of_list lattice.Lattice.elements in
  Binding.make lattice
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Sset.elements (Ifc_lang.Vars.all_vars stmt)))

(* ------------------------------------------------------------------ *)
(* F2: the Figure 2 table, computed over canonical statements. *)

let fig2_table () =
  banner "F2: Figure 2, computed (two-point lattice; e high, x/y low, sem high)";
  let b =
    Binding.make two [ ("e", high); ("x", low); ("y", low); ("sem", high) ]
  in
  let rows =
    [
      ("x := e", "x := e");
      ("x := 1", "x := 1");
      ("if e then x:=1 else y:=1", "if e = 0 then x := 1 else y := 1");
      ("if x then y:=1 (low cond)", "if x = 0 then y := 1 fi");
      ("while e do x := 1", "while e = 0 do x := 1");
      ("while x do y := 1 (low)", "while x = 0 do y := 1");
      ("begin wait(sem); y:=1 end", "begin wait(sem); y := 1 end");
      ("begin y:=1; wait(sem) end", "begin y := 1; wait(sem) end");
      ("cobegin wait(sem) || y:=1", "cobegin wait(sem) || y := 1 coend");
      ("wait(sem)", "wait(sem)");
      ("signal(sem)", "signal(sem)");
      ("skip", "skip");
    ]
  in
  Fmt.pr "%-30s %-6s %-6s %s@." "statement" "mod" "flow" "cert";
  let certified = ref 0 in
  List.iter
    (fun (label, src) ->
      match Parser.parse_stmt src with
      | Error e -> Fmt.pr "%s: parse error %a@." label Parser.pp_error e
      | Ok s ->
        let r = Cfm.analyze b s in
        if r.Cfm.certified then incr certified;
        Fmt.pr "%-30s %-6s %-6s %b@." label (two.Lattice.to_string r.Cfm.mod_)
          (Fmt.str "%a" (Extended.pp two) r.Cfm.flow)
          r.Cfm.certified)
    rows;
  metric_i "tables" "certified_rows" !certified

(* ------------------------------------------------------------------ *)
(* F3: the Figure 3 matrix and requirement chain. *)

let fig3_report () =
  banner "F3: Figure 3 with sbind(x), sbind(y) fixed and everything else free";
  (* CFM column: does ANY binding certify with these two endpoints fixed
     (solved by inference)? Denning column: its verdict on the binding
     most favourable to it (intermediaries escalated so its local checks
     pass) — exposing that it never sees the synchronization leak.
     Logic column: a completely invariant proof exists for the inferred /
     favourable binding. *)
  let denning_friendly x_cls y_cls =
    Binding.make two
      [
        ("x", x_cls); ("y", y_cls); ("m", low); ("modify", high);
        ("modified", high); ("read", low); ("done", low);
      ]
  in
  Fmt.pr "%-10s %-10s %-24s %-22s %s@." "sbind(x)" "sbind(y)" "CFM (any binding)"
    "Denning (favourable)" "proof (CFM binding)";
  List.iter
    (fun (x_cls, y_cls) ->
      let fixed = [ ("x", x_cls); ("y", y_cls) ] in
      let cfm_possible = Infer.infer two ~fixed Paper.fig3 in
      let denning_ok =
        Denning.certified ~on_concurrency:`Ignore (denning_friendly x_cls y_cls)
          Paper.fig3.Ast.body
      in
      let proof =
        match cfm_possible with
        | Ok b -> Invariance.decide b Paper.fig3.Ast.body
        | Error _ -> false
      in
      Fmt.pr "%-10s %-10s %-24s %-22s %b@." (two.Lattice.to_string x_cls)
        (two.Lattice.to_string y_cls)
        (match cfm_possible with
        | Ok _ -> "certifiable"
        | Error _ -> "NO binding certifies")
        (if denning_ok then "certified (leak missed)" else "rejected")
        proof)
    [ (low, low); (low, high); (high, low); (high, high) ];
  Fmt.pr "@.requirement chain (4.3): any certified binding satisfies@.";
  let cs = Infer.constraints Paper.fig3.Ast.body in
  let wanted =
    [
      "sbind(x) <= sbind(modify)";
      "sbind(modify) <= sbind(m)";
      "sbind(m) <= sbind(y)";
    ]
  in
  let derived = ref 0 in
  List.iter
    (fun w ->
      let present =
        List.exists (fun c -> String.equal (Fmt.str "%a" Infer.pp_constr c) w) cs
      in
      if present then incr derived;
      Fmt.pr "  %-34s %s@." w (if present then "derived" else "MISSING"))
    wanted;
  metric_i "fig3" "chain_derived" !derived

(* ------------------------------------------------------------------ *)
(* T1/T2: the equivalence, quantified over a corpus. *)

let theorems ~corpus () =
  banner
    (Printf.sprintf
       "T1/T2: CFM certification <=> completely invariant flow proof (%d programs \
        per lattice)"
       corpus);
  let lattices =
    [ ("two-point", Lattice.stringify two); ("mls", Lattice.stringify Mls.standard) ]
  in
  List.iter
    (fun (name, lat) ->
      let rng = Prng.create 7 in
      let certified = ref 0 and agree = ref 0 and total = ref 0 in
      for i = 1 to corpus do
        let p = Gen.program rng Gen.default ~size:(1 + (i mod 30)) in
        let b = random_binding rng lat p.Ast.body in
        let cert = Cfm.certified b p.Ast.body in
        let proof = Invariance.decide b p.Ast.body in
        incr total;
        if cert then incr certified;
        if Bool.equal cert proof then incr agree
      done;
      Fmt.pr "%-10s programs: %d  certified: %d (%.0f%%)  agreement: %d/%d%s@." name
        !total !certified
        (100. *. float_of_int !certified /. float_of_int !total)
        !agree !total
        (if !agree = !total then "  [theorems hold]" else "  [DIVERGENCE!]");
      metric_f "theorems"
        (name ^ "_agreement_pct")
        (100. *. float_of_int !agree /. float_of_int !total))
    lattices

(* ------------------------------------------------------------------ *)
(* S52: relative strength — secure but rejected. *)

let strength ~corpus () =
  banner "S52: relative strength — CFM-rejected programs that are semantically secure";
  Fmt.pr "(sequential fragment over the two-point lattice)@.";
  let rng = Prng.create 11 in
  let rejected = ref 0 and secure_rejected = ref 0 and tested = ref 0 in
  let cfg = { Gen.sequential with Gen.max_depth = 3 } in
  for i = 1 to corpus do
    let p = Gen.program rng cfg ~size:(2 + (i mod 8)) in
    let b = random_binding rng two p.Ast.body in
    if not (Cfm.certified b p.Ast.body) then begin
      incr rejected;
      let r = Ni.test ~seed:i ~pairs:4 ~max_states:3000 ~observer:low b p in
      if r.Ni.pairs_tested > 0 then begin
        incr tested;
        if Ni.secure r then incr secure_rejected
      end
    end
  done;
  Fmt.pr "rejected by CFM: %d;  of %d testable, empirically secure: %d (%.0f%%)@."
    !rejected !tested !secure_rejected
    (if !tested = 0 then 0.
     else 100. *. float_of_int !secure_rejected /. float_of_int !tested);
  Fmt.pr
    "The paper's 5.2 example is in this class: x := 0; y := x with x high, y@ low \
     is rejected yet secure (the flow logic proves it; CFM cannot).@.";
  metric_i "strength" "rejected" !rejected;
  metric_f "strength" "secure_rejected_pct"
    (if !tested = 0 then 0.
     else 100. *. float_of_int !secure_rejected /. float_of_int !tested)

(* ------------------------------------------------------------------ *)
(* ABL: mechanism ablation — acceptance rates across analysers. *)

let ablation ~corpus () =
  banner "ABL: acceptance rates of the three mechanisms (same corpus and bindings)";
  let rng = Prng.create 99 in
  let denning_n = ref 0 and cfm_n = ref 0 and fs_n = ref 0 and total = ref 0 in
  let inversions = ref 0 in
  for i = 1 to corpus do
    let p = Gen.program rng Gen.default ~size:(1 + (i mod 25)) in
    let b = random_binding rng two p.Ast.body in
    incr total;
    let den = Denning.certified ~on_concurrency:`Ignore b p.Ast.body in
    let cfm = Cfm.certified b p.Ast.body in
    let fs = Ifc_core.Flow_sensitive.certified b p.Ast.body in
    if den then incr denning_n;
    if cfm then incr cfm_n;
    if fs then incr fs_n;
    (* Expected containment: CFM ⊆ Denning (misses channels) and
       CFM ⊆ flow-sensitive (more precise). *)
    if (cfm && not den) || (cfm && not fs) then incr inversions
  done;
  let pct n = 100. *. float_of_int n /. float_of_int !total in
  Fmt.pr "%-36s %6d/%d (%.0f%%)@." "Denning & Denning (no global flows):" !denning_n
    !total (pct !denning_n);
  Fmt.pr "%-36s %6d/%d (%.0f%%)@." "CFM (the paper):" !cfm_n !total (pct !cfm_n);
  Fmt.pr "%-36s %6d/%d (%.0f%%)@." "flow-sensitive (6.0 extension):" !fs_n !total
    (pct !fs_n);
  Fmt.pr "containment violations: %d%s@." !inversions
    (if !inversions = 0 then "  [CFM <= Denning and CFM <= FS hold]" else "  [BUG]");
  Fmt.pr
    "@.Denning accepts more than CFM only because it is blind to global@ flows — \
     every extra acceptance is a potential synchronization or@ termination leak. \
     The flow-sensitive extension accepts more than CFM@ soundly, by tracking \
     current classes.@.";
  metric_f "ablation" "cfm_accept_pct" (pct !cfm_n);
  metric_i "ablation" "containment_violations" !inversions

(* ------------------------------------------------------------------ *)
(* C1: linear-time claim. *)

let time_one f =
  (* Median of 5 timed runs, CPU seconds. *)
  let runs =
    List.init 5 (fun _ ->
        let t0 = Sys.time () in
        ignore (Sys.opaque_identity (f ()));
        Sys.time () -. t0)
  in
  match List.sort compare runs with
  | _ :: _ :: m :: _ -> m
  | m :: _ -> m
  | [] -> 0.

(* [per_item inputs f]: CPU µs per call of [f] over [inputs] (median of
   5 passes), words per call from Gc.minor_words, which counts every
   minor-heap allocation exactly, and words per call allocated straight
   into the major heap (blocks over 256 words), which Gc.minor_words
   never sees: major minus promoted words from Gc.counters. (Gc.counters'
   minor count is not used: on OCaml 5.1 it under-counts words still in
   the minor heap.) *)
let per_item inputs f =
  let n = float_of_int (List.length inputs) in
  let pass () = List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs in
  let w0 = Gc.minor_words () in
  let _, p0, m0 = Gc.counters () in
  pass ();
  let words = (Gc.minor_words () -. w0) /. n in
  let _, p1, m1 = Gc.counters () in
  let major = (m1 -. m0 -. (p1 -. p0)) /. n in
  (1e6 *. time_one pass /. n, words, major)

let scaling ~sizes () =
  banner "C1: certification time vs program length (the 6.0 linearity claim)";
  Fmt.pr "%-10s %-10s %12s %12s %12s %14s@." "size" "length" "denning" "cfm"
    "infer" "proof(gen+chk)";
  Fmt.pr "%-10s %-10s %12s %12s %12s %14s@." "(stmts)" "(nodes)" "(us)" "(us)" "(us)"
    "(us)";
  let rows =
    List.map
      (fun size ->
        let rng = Prng.create 42 in
        let p = Gen.program rng Gen.default ~size in
        let b = random_binding rng two p.Ast.body in
        let length = Metrics.length p in
        let t_den =
          time_one (fun () -> Denning.certified ~on_concurrency:`Ignore b p.Ast.body)
        in
        let t_cfm = time_one (fun () -> Cfm.certified b p.Ast.body) in
        let t_inf = time_one (fun () -> Infer.constraints p.Ast.body) in
        let t_proof =
          time_one (fun () ->
              let proof = Generate.theorem1 b p.Ast.body in
              Check.check ~interference:`Trust two proof)
        in
        Fmt.pr "%-10d %-10d %12.1f %12.1f %12.1f %14.1f@."
          (Metrics.of_program p).Metrics.statements length (1e6 *. t_den)
          (1e6 *. t_cfm) (1e6 *. t_inf) (1e6 *. t_proof);
        (length, t_cfm))
      sizes
  in
  match (rows, List.rev rows) with
  | (l0, t0) :: _, (l1, t1) :: _ when l0 <> l1 && t0 > 0. ->
    let per0 = t0 /. float_of_int l0 and per1 = t1 /. float_of_int l1 in
    Fmt.pr
      "@.CFM ns/node at smallest vs largest size: %.1f vs %.1f (ratio %.2f; linear \
       scaling keeps this near 1)@."
      (1e9 *. per0) (1e9 *. per1)
      (per1 /. per0);
    metric_f "scaling" "cfm_ns_per_node_ratio" (per1 /. per0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* SND: empirical soundness. *)

let soundness ~corpus () =
  banner "SND: certified programs pass the noninterference test";
  let rng = Prng.create 2718 in
  let cfg = { Gen.default with Gen.max_depth = 3 } in
  let checked = ref 0 and violations = ref 0 and attempts = ref 0 in
  while !checked < corpus && !attempts < corpus * 30 do
    incr attempts;
    let p = Gen.program_balanced rng cfg ~size:(2 + (!attempts mod 10)) in
    let vars, _, _, _ = Ifc_lang.Vars.declared p in
    let pairs =
      List.map (fun v -> (v, if Prng.bool rng then high else low)) (Sset.elements vars)
    in
    let b = Binding.make two pairs in
    if List.exists (fun (_, c) -> c = high) pairs && Cfm.certified b p.Ast.body then begin
      let r = Ni.test ~seed:!attempts ~pairs:4 ~max_states:4000 ~observer:low b p in
      if r.Ni.pairs_tested > 0 then begin
        incr checked;
        if not (Ni.secure r) then incr violations
      end
    end
  done;
  Fmt.pr "certified programs tested: %d, noninterference violations: %d%s@." !checked
    !violations
    (if !violations = 0 then "  [sound on this corpus]" else "  [UNSOUND?]");
  (* The counterpoint: the leaky paper examples DO violate. *)
  let leaky =
    Binding.make two
      (("x", high) :: List.map (fun v -> (v, low)) (List.tl Paper.fig3_vars))
  in
  let r = Ni.test ~pairs:4 ~observer:low leaky Paper.fig3 in
  Fmt.pr "control (fig3, x high / y low): %d violations in %d pairs [leak confirmed]@."
    (List.length r.Ni.violations)
    r.Ni.pairs_tested;
  metric_i "ni" "certified_tested" !checked;
  metric_i "ni" "violations" !violations

(* ------------------------------------------------------------------ *)
(* POR: state-space reduction from partial-order reduction. *)

let por ~corpus () =
  banner "POR: interleaving-space reduction (same summaries, fewer states)";
  let explore_pair ?inputs p =
    let full = Ifc_exec.Explore.explore_program ?inputs ~max_states:200_000 p in
    let reduced =
      Ifc_exec.Explore.explore_program ~por:true ?inputs ~max_states:200_000 p
    in
    (full, reduced)
  in
  Fmt.pr "%-34s %10s %10s %9s@." "workload" "full" "por" "ratio";
  let report name (full : Ifc_exec.Explore.summary) (reduced : Ifc_exec.Explore.summary) =
    Fmt.pr "%-34s %10d %10d %8.1fx@." name full.Ifc_exec.Explore.states
      reduced.Ifc_exec.Explore.states
      (float_of_int full.Ifc_exec.Explore.states
      /. float_of_int (max 1 reduced.Ifc_exec.Explore.states))
  in
  let f, r = explore_pair ~inputs:[ ("x", 0) ] Paper.fig3 in
  report "fig3 (x = 0)" f r;
  (match
     Parser.parse_program
       "var a, b, c, d, e, f : integer; cobegin a := 1 || b := 2 || c := 3 || d := 4 || e := 5 || f := 6 coend"
   with
  | Ok p ->
    let f, r = explore_pair p in
    report "6 independent writers" f r
  | Error _ -> ());
  (match
     Parser.parse_program
       {|var a, b, t : integer; s : semaphore initially(0);
         cobegin begin a := 1; a := a + 1; signal(s) end
         || begin b := 2; b := b * 3; wait(s); t := 1 end coend|}
   with
  | Ok p ->
    let f, r = explore_pair p in
    report "2 workers + 1 rendezvous" f r
  | Error _ -> ());
  (* Random corpus aggregate. *)
  let rng = Prng.create 515 in
  let full_total = ref 0 and por_total = ref 0 and n = ref 0 in
  for i = 1 to corpus do
    let p =
      Gen.program_balanced rng { Gen.default with Gen.max_depth = 3 }
        ~size:(2 + (i mod 10))
    in
    let full, reduced = explore_pair p in
    if full.Ifc_exec.Explore.complete && reduced.Ifc_exec.Explore.complete then begin
      incr n;
      full_total := !full_total + full.Ifc_exec.Explore.states;
      por_total := !por_total + reduced.Ifc_exec.Explore.states
    end
  done;
  Fmt.pr "%-34s %10d %10d %8.1fx   (%d programs)@." "random corpus (total states)"
    !full_total !por_total
    (float_of_int !full_total /. float_of_int (max 1 !por_total))
    !n;
  metric_f "por" "corpus_reduction_ratio"
    (float_of_int !full_total /. float_of_int (max 1 !por_total))

(* ------------------------------------------------------------------ *)
(* PIPE: the batch pipeline — throughput scaling over domains,
   verdict determinism, and result-cache hit rates. *)

let pipeline ~corpus () =
  banner
    (Printf.sprintf
       "PIPE: batch certification of a %d-program corpus (cfm + prove per job)"
       corpus);
  let lat = Lattice.stringify two in
  (* The corpus is a pure function of the seed, so every configuration
     below certifies byte-identical inputs. *)
  let make_specs () =
    let rng = Prng.create 271828 in
    List.init corpus (fun i ->
        let p = Gen.program rng Gen.default ~size:(5 + (i mod 40)) in
        let b = random_binding rng lat p.Ast.body in
        Job.make ~id:i
          ~name:(Printf.sprintf "corpus:%d" i)
          ~lattice:lat ~binding:b
          ~analyses:[ Job.Cfm; Job.Prove ]
          p)
  in
  let verdicts summary =
    List.map Job.verdict_string summary.Batch.results |> List.sort compare
  in
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    Fmt.pr
      "note: host reports %d available core(s); speedup above 1x needs real \
       parallelism@."
      cores;
  Fmt.pr "%-10s %12s %12s %10s@." "domains" "wall (ms)" "jobs/s" "speedup";
  let runs =
    List.map
      (fun jobs ->
        let summary = Batch.run ~jobs (make_specs ()) in
        (jobs, summary))
      [ 1; 2; 4 ]
  in
  let wall_ms s = Int64.to_float s.Batch.wall_ns /. 1e6 in
  let base_wall =
    match runs with (_, s) :: _ -> wall_ms s | [] -> assert false
  in
  List.iter
    (fun (jobs, s) ->
      let speedup = base_wall /. wall_ms s in
      Fmt.pr "%-10d %12.1f %12.1f %9.2fx@." jobs (wall_ms s)
        (Batch.throughput s) speedup;
      if jobs > 1 then
        metric_f "pipeline" (Printf.sprintf "speedup_%d" jobs) speedup)
    runs;
  let reference = verdicts (snd (List.hd runs)) in
  let deterministic =
    List.for_all (fun (_, s) -> verdicts s = reference) (List.tl runs)
  in
  Fmt.pr "verdict multisets across domain counts: %s@."
    (if deterministic then "identical" else "DIVERGENT!");
  metric_i "pipeline" "corpus" corpus;
  metric "pipeline" "verdicts_deterministic" (string_of_bool deterministic);
  (* Cache: a cold pass fills it, a warm pass should only hit. *)
  let cache = Cache.create ~capacity:(2 * corpus) () in
  let cold = Batch.run ~jobs:4 ~cache (make_specs ()) in
  let warm = Batch.run ~jobs:4 ~cache (make_specs ()) in
  let rate hits misses =
    if hits + misses = 0 then 0.
    else 100. *. float_of_int hits /. float_of_int (hits + misses)
  in
  Fmt.pr "cache cold: %d hits / %d misses; warm: %d hits / %d misses (%.1f%%)@."
    cold.Batch.cache_hits cold.Batch.cache_misses warm.Batch.cache_hits
    warm.Batch.cache_misses
    (rate warm.Batch.cache_hits warm.Batch.cache_misses);
  Fmt.pr "warm verdicts identical: %b;  warm wall: %.1f ms (cold: %.1f ms)@."
    (verdicts warm = verdicts cold)
    (wall_ms warm) (wall_ms cold);
  metric_f "pipeline" "warm_hit_rate_pct"
    (rate warm.Batch.cache_hits warm.Batch.cache_misses);
  metric_f "pipeline" "cache_speedup" (wall_ms cold /. wall_ms warm)

(* ------------------------------------------------------------------ *)
(* FUZZ: the differential fuzzing campaign — end-to-end throughput of
   the analyzer matrix plus semantic oracle, and the cost of shrinking
   a planted inversion down to its minimal program. *)

let fuzz_bench ~cases () =
  banner
    (Printf.sprintf
       "FUZZ: %d-case differential campaign (cfm + denning + fs + prove + ni)"
       cases);
  let jobs = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let cfg = { Campaign.default with cases; seed = 42; jobs } in
  let s = Campaign.run cfg in
  let wall_s = Int64.to_float s.Campaign.elapsed_ns /. 1e9 in
  let cases_per_s = float_of_int s.Campaign.completed /. wall_s in
  let pairs =
    s.Campaign.oracle_pairs_tested + s.Campaign.oracle_pairs_skipped
  in
  let skip_pct =
    if pairs = 0 then 0.
    else 100. *. float_of_int s.Campaign.oracle_pairs_skipped
         /. float_of_int pairs
  in
  Fmt.pr "completed %d cases in %.2f s (%.1f cases/s, %d domains)@."
    s.Campaign.completed wall_s cases_per_s jobs;
  Fmt.pr "oracle pairs: %d tested, %d skipped (%.1f%% skip rate)@."
    s.Campaign.oracle_pairs_tested s.Campaign.oracle_pairs_skipped skip_pct;
  Fmt.pr "inversions=%d gaps=%d@." s.Campaign.inversion_cases
    s.Campaign.gap_cases;
  metric_f "fuzz" "cases_per_sec" cases_per_s;
  metric_f "fuzz" "oracle_skip_pct" skip_pct;
  metric_i "fuzz" "inversions" s.Campaign.inversion_cases;
  metric_i "fuzz" "gaps" s.Campaign.gap_cases;
  (* Shrinking cost: plant one forced inversion and time its reduction
     to the minimal leaking assignment. *)
  let planted =
    Campaign.run
      { Campaign.default with cases = 0; seed = 7; jobs = 1;
        plants = [ Ifc_support.Plant.Inversion ] }
  in
  (match planted.Campaign.counterexamples with
  | c :: _ ->
    Fmt.pr "planted inversion: %d -> %d statements (%d steps, %d evals)@."
      c.Campaign.original_statements c.Campaign.shrunk_statements
      c.Campaign.shrink.Ifc_fuzz.Shrink.steps
      c.Campaign.shrink.Ifc_fuzz.Shrink.evals;
    metric_i "fuzz" "planted_shrink_steps" c.Campaign.shrink.Ifc_fuzz.Shrink.steps;
    metric_i "fuzz" "planted_shrink_evals" c.Campaign.shrink.Ifc_fuzz.Shrink.evals;
    metric_i "fuzz" "planted_shrunk_statements" c.Campaign.shrunk_statements
  | [] -> Fmt.pr "planted inversion: NOT CAUGHT!@.")

(* ------------------------------------------------------------------ *)
(* LINT: the static concurrency analyzer over a cobegin-heavy corpus —
   statements and findings per second, plus the claim mix. *)

let lint_bench ~corpus () =
  banner
    (Printf.sprintf
       "LINT: static concurrency analysis of a %d-program cobegin-heavy corpus"
       corpus);
  let module J = Ifc_pipeline.Telemetry in
  let module Analyze = Ifc_analysis.Analyze in
  let rng = Prng.create 1979 in
  let cfg = { Gen.default with Gen.max_branch = 4 } in
  let programs =
    List.init corpus (fun i -> Gen.program rng cfg ~size:(5 + (i mod 60)))
  in
  let timer = J.start () in
  let reports = List.map Analyze.run programs in
  let wall_s = Int64.to_float (J.elapsed_ns timer) /. 1e9 in
  let stmts =
    List.fold_left
      (fun a (r : Analyze.report) -> a + r.Analyze.stats.Analyze.statements)
      0 reports
  in
  let findings =
    List.fold_left
      (fun a (r : Analyze.report) -> a + List.length r.Analyze.findings)
      0 reports
  in
  let count f = List.length (List.filter f reports) in
  let racy = count (fun r -> not r.Analyze.claims.Analyze.race_free) in
  let deadlocky = count (fun r -> not r.Analyze.claims.Analyze.deadlock_free) in
  let stuck = count (fun r -> r.Analyze.claims.Analyze.must_block) in
  Fmt.pr "analyzed %d programs (%d statements) in %.3f s@." corpus stmts wall_s;
  Fmt.pr "throughput: %.0f statements/s, %.0f findings/s (%d findings)@."
    (float_of_int stmts /. wall_s)
    (float_of_int findings /. wall_s)
    findings;
  Fmt.pr "claims: %d may race, %d may deadlock, %d must block@." racy deadlocky
    stuck;
  metric_i "lint" "corpus" corpus;
  metric_f "lint" "statements_per_sec" (float_of_int stmts /. wall_s);
  metric_f "lint" "findings_per_sec" (float_of_int findings /. wall_s);
  metric_i "lint" "findings" findings

(* ------------------------------------------------------------------ *)
(* DATAFLOW: the abstract-interpretation engine — solver throughput,
   and the lint's cost and false-positive reduction with pruning on vs
   off. Every third corpus program is wrapped in a statically
   infeasible branch so the whole-program findings inside it are
   false positives the engine must remove. *)

let dataflow_bench ~corpus () =
  banner
    (Printf.sprintf
       "DATAFLOW: interval analysis and pruning over a %d-program corpus"
       corpus);
  let module J = Ifc_pipeline.Telemetry in
  let module Analyze = Ifc_analysis.Analyze in
  let module Finding = Ifc_analysis.Finding in
  let module Prune = Ifc_dataflow.Prune in
  let rng = Prng.create 1979 in
  let cfg = { Gen.default with Gen.max_branch = 4 } in
  let wrap p =
    (* x := 1; if x = 0 then <body> else skip — everything inside the
       arm is unreachable on every input. *)
    let z = "infeasible_z" in
    {
      Ast.decls = Ast.Var_decl { name = z; cls = None } :: p.Ast.decls;
      body =
        Ast.seq
          [
            Ast.assign z (Ast.int 1);
            Ast.if_ (Ast.Binop (Ast.Eq, Ast.var z, Ast.int 0)) ~then_:p.Ast.body
              ~else_:Ast.skip;
          ];
    }
  in
  let programs =
    List.init corpus (fun i ->
        let p = Gen.program rng cfg ~size:(5 + (i mod 60)) in
        if i mod 3 = 0 then wrap p else p)
  in
  let stmts =
    List.fold_left
      (fun a p -> a + (Metrics.of_program p).Metrics.statements)
      0 programs
  in
  let timed f =
    let timer = J.start () in
    let r = List.map f programs in
    (r, Int64.to_float (J.elapsed_ns timer) /. 1e9)
  in
  (* Leg 1: the solver alone — interval fixpoint, pruning, liveness. *)
  let prunes, solver_s = timed Prune.analyze in
  let visits = List.fold_left (fun a r -> a + r.Prune.visits) 0 prunes in
  let pruned_arms =
    List.fold_left (fun a r -> a + List.length r.Prune.pruned) 0 prunes
  in
  (* Leg 2: the full lint with pruning on vs off. *)
  let reports_on, lint_on_s = timed Analyze.run in
  let reports_off, lint_off_s = timed (Analyze.run ~dataflow:false) in
  (* A structural finding is one the concurrency passes emit; guard and
     dataflow lints are excluded so the delta isolates false positives
     removed, not warnings added. *)
  let structural r =
    List.length
      (List.filter
         (fun (f : Finding.t) ->
           match f.Finding.kind with
           | Finding.Guard | Finding.Unreachable | Finding.Dead_store -> false
           | _ -> true)
         r.Analyze.findings)
  in
  let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs in
  let fp_removed = sum structural reports_off - sum structural reports_on in
  let strengthened =
    List.fold_left2
      (fun a (on : Analyze.report) (off : Analyze.report) ->
        let claim c = if c on.Analyze.claims && not (c off.Analyze.claims) then 1 else 0 in
        a
        + claim (fun c -> c.Analyze.race_free)
        + claim (fun c -> c.Analyze.deadlock_free))
      0 reports_on reports_off
  in
  Fmt.pr "solver: %d statements in %.3f s (%.0f stmt/s, %d transfer visits)@."
    stmts solver_s
    (float_of_int stmts /. solver_s)
    visits;
  Fmt.pr "lint with pruning: %.0f stmt/s; without: %.0f stmt/s@."
    (float_of_int stmts /. lint_on_s)
    (float_of_int stmts /. lint_off_s);
  Fmt.pr
    "pruned %d arms; removed %d false-positive findings; strengthened %d \
     claims@."
    pruned_arms fp_removed strengthened;
  metric_i "dataflow" "corpus" corpus;
  metric_i "dataflow" "statements" stmts;
  metric_f "dataflow" "solver_statements_per_sec"
    (float_of_int stmts /. solver_s);
  metric_i "dataflow" "solver_visits" visits;
  metric_f "dataflow" "lint_statements_per_sec_pruning"
    (float_of_int stmts /. lint_on_s);
  metric_f "dataflow" "lint_statements_per_sec_no_pruning"
    (float_of_int stmts /. lint_off_s);
  metric_i "dataflow" "pruned_arms" pruned_arms;
  metric_i "dataflow" "false_positives_removed" fp_removed;
  metric_i "dataflow" "claims_strengthened" strengthened

(* ------------------------------------------------------------------ *)
(* CHAN: the message-passing workload end to end — certify, lint (with
   channel-graph construction), and explore generated channel programs,
   reporting each leg's throughput. *)

let chan_bench ~corpus () =
  banner
    (Printf.sprintf
       "CHAN: certify + lint + explore a %d-program message-passing corpus"
       corpus);
  let module J = Ifc_pipeline.Telemetry in
  let module Analyze = Ifc_analysis.Analyze in
  let module Explore = Ifc_exec.Explore in
  let stwo = Lattice.stringify two in
  let binding = Binding.make stwo ~default:stwo.Lattice.bottom [] in
  let rng = Prng.create 1979 in
  let programs =
    List.init corpus (fun i -> Gen.program rng Gen.with_channels ~size:(4 + (i mod 40)))
  in
  let stmts =
    List.fold_left
      (fun a p -> a + (Metrics.of_program p).Metrics.statements)
      0 programs
  in
  let timed f =
    let timer = J.start () in
    let r = List.map f programs in
    (r, Int64.to_float (J.elapsed_ns timer) /. 1e9)
  in
  let certified, certify_s = timed (fun p -> Cfm.certified binding p.Ast.body) in
  let reports, lint_s = timed Analyze.run in
  let summaries, explore_s =
    timed (fun p -> Explore.explore_program ~max_states:20_000 p)
  in
  let accepted = List.length (List.filter Fun.id certified) in
  let channels =
    List.fold_left
      (fun a (r : Analyze.report) -> a + List.length r.Analyze.channels)
      0 reports
  in
  let chan_findings =
    List.fold_left
      (fun a (r : Analyze.report) ->
        a
        + List.length
            (List.filter
               (fun (f : Ifc_analysis.Finding.t) ->
                 match f.Ifc_analysis.Finding.kind with
                 | Ifc_analysis.Finding.Chan_deadlock
                 | Ifc_analysis.Finding.Chan_race
                 | Ifc_analysis.Finding.Orphan_message ->
                   true
                 | _ -> false)
               r.Analyze.findings))
      0 reports
  in
  let states =
    List.fold_left (fun a (s : Explore.summary) -> a + s.Explore.states) 0 summaries
  in
  let blocked =
    List.length
      (List.filter (fun (s : Explore.summary) -> s.Explore.chan_blocked <> []) summaries)
  in
  Fmt.pr "corpus: %d programs, %d statements, %d channel endpoints@." corpus
    stmts channels;
  Fmt.pr "certify: %d/%d accepted, %.0f programs/s@." accepted corpus
    (float_of_int corpus /. certify_s);
  Fmt.pr "lint: %.0f statements/s, %d channel findings@."
    (float_of_int stmts /. lint_s)
    chan_findings;
  Fmt.pr "explore: %.0f states/s, %d programs reach a blocked channel@."
    (float_of_int states /. explore_s)
    blocked;
  metric_i "chan" "corpus" corpus;
  metric_i "chan" "channels" channels;
  metric_f "chan" "certify_programs_per_sec" (float_of_int corpus /. certify_s);
  metric_f "chan" "lint_statements_per_sec" (float_of_int stmts /. lint_s);
  metric_f "chan" "explore_states_per_sec" (float_of_int states /. explore_s);
  metric_i "chan" "chan_findings" chan_findings;
  metric_i "chan" "blocked_programs" blocked

(* ------------------------------------------------------------------ *)
(* CERT: proof-certificate emission and independent re-checking
   throughput, plus how certificate size scales with program size. *)

let cert_bench ~corpus () =
  banner
    (Printf.sprintf
       "CERT: emit + independently re-check %d flow-proof certificates"
       corpus);
  let module Cert = Ifc_cert.Cert in
  let module Checker = Ifc_cert.Checker in
  let module J = Ifc_pipeline.Telemetry in
  let stwo = Lattice.stringify two in
  let binding = Binding.make stwo ~default:stwo.Lattice.bottom [] in
  (* Provable programs at the all-low binding: generated, kept when a
     Theorem 1 witness exists. *)
  let rng = Prng.create 20260806 in
  let rec collect acc remaining tries =
    if remaining = 0 || tries >= corpus * 100 then List.rev acc
    else
      let size = 2 + (tries mod 24) in
      let p = Gen.program rng Gen.default ~size in
      match Invariance.witness binding p.Ast.body with
      | Ok proof -> collect ((p, proof) :: acc) (remaining - 1) (tries + 1)
      | Error _ -> collect acc remaining (tries + 1)
  in
  let cases = collect [] corpus 0 in
  let n = List.length cases in
  let timer = J.start () in
  let certs =
    List.map
      (fun (p, proof) ->
        (p, Cert.to_string (Cert.of_proof ~binding ~program:p proof)))
      cases
  in
  let emit_s = Int64.to_float (J.elapsed_ns timer) /. 1e9 in
  let timer = J.start () in
  let valid =
    List.fold_left
      (fun acc (p, text) ->
        match Cert.parse text with
        | Error _ -> acc
        | Ok cert ->
          if Result.is_ok (Checker.check cert p) then acc + 1 else acc)
      0 certs
  in
  let check_s = Int64.to_float (J.elapsed_ns timer) /. 1e9 in
  let bytes = List.fold_left (fun a (_, t) -> a + String.length t) 0 certs in
  let stmts = List.fold_left (fun a (p, _) -> a + Metrics.length p) 0 cases in
  Fmt.pr "emitted %d certificates in %.3f s (%.0f certs/s)@." n emit_s
    (float_of_int n /. emit_s);
  Fmt.pr "re-checked %d certificates in %.3f s (%.0f certs/s), %d valid@." n
    check_s
    (float_of_int n /. check_s)
    valid;
  Fmt.pr "size: %.1f certificate bytes per statement (%d bytes / %d statements)@."
    (float_of_int bytes /. float_of_int stmts)
    bytes stmts;
  metric_i "cert" "corpus" n;
  metric_f "cert" "emit_per_sec" (float_of_int n /. emit_s);
  metric_f "cert" "check_per_sec" (float_of_int n /. check_s);
  metric_i "cert" "checked_valid" valid;
  metric_f "cert" "bytes_per_statement"
    (float_of_int bytes /. float_of_int stmts);
  (* Phases of one certificate over a fixed set shaped like the daemon
     benchmark's cert-store working set: eight integer variables and two
     semaphores, generator size 30, each program at the least binding
     that holds one variable at top. The witness is Generate plus
     Logic.Check; render is of_proof plus to_string. The last row, emit,
     is what a certificate costs end to end (Emit.certificate: CFM,
     Generate, render, parse and one independent check), against the sum
     of the four rows before it. Reported per certificate: CPU µs
     (median of 5 passes) and minor-heap words. *)
  let cfg = { Gen.default with Gen.vars = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] } in
  let rng = Prng.create 7 in
  let set =
    List.init 64 (fun _ ->
        let p = Gen.program rng cfg ~size:30 in
        let v = Prng.choose rng (Sset.elements (Ifc_lang.Vars.all_vars p.Ast.body)) in
        match Infer.infer stwo ~fixed:[ (v, stwo.Lattice.top) ] p with
        | Ok b -> (b, p)
        | Error _ -> invalid_arg "cert: inference failed with one top variable")
  in
  let ok = function Ok x -> x | Error _ -> invalid_arg "cert: phase input rejected" in
  let proofs = List.map (fun (b, p) -> (b, p, ok (Invariance.witness b p.Ast.body))) set in
  let texts =
    List.map
      (fun (binding, program, proof) ->
        (program, Cert.to_string (Cert.of_proof ~binding ~program proof)))
      proofs
  in
  let parsed = List.map (fun (p, text) -> (p, ok (Cert.parse text))) texts in
  if not (List.for_all (fun (p, c) -> Result.is_ok (Checker.check c p)) parsed) then
    invalid_arg "cert: a phase certificate was rejected";
  let row name (us, words, _) =
    Fmt.pr "%-8s %10.1f us %10.0f words per certificate@." name us words;
    metric_f "cert" (name ^ "_us") us;
    metric_f "cert" (name ^ "_words") words
  in
  Fmt.pr "phases over %d cert-store-shaped programs (size 30, %.1f statements each):@."
    (List.length set)
    (float_of_int
       (List.fold_left (fun a (_, p) -> a + (Metrics.of_program p).Metrics.statements) 0 set)
    /. float_of_int (List.length set));
  row "witness" (per_item set (fun (b, p) -> Invariance.witness b p.Ast.body));
  row "render"
    (per_item proofs (fun (binding, program, proof) ->
         Cert.to_string (Cert.of_proof ~binding ~program proof)));
  row "parse" (per_item texts (fun (_, text) -> Cert.parse text));
  row "check" (per_item parsed (fun (p, c) -> Checker.check c p));
  row "emit"
    (per_item set (fun (b, p) ->
         ok
           (Ifc_logic_gen.Emit.certificate
              ~witness:(lazy (Invariance.witness b p.Ast.body))
              b p)));
  List.iter
    (fun (name, l) ->
      let text = Ifc_lattice.Spec.to_text l in
      let us, _, _ = per_item (List.init 20 (fun _ -> text)) Ifc_lattice.Spec.parse in
      Fmt.pr "Spec.parse on %s: %.1f us@." name us;
      metric_f "cert" ("spec_parse_" ^ name ^ "_us") us)
    [ ("two", stwo); ("mls", Lattice.stringify Mls.standard) ]

(* ------------------------------------------------------------------ *)
(* LOAD: sustained pipelined load at high connection counts. The server
   runs as an [ifc serve] subprocess: its select-based shard loops need
   every fd below FD_SETSIZE, so it must not share a process with the
   thousand client sockets the load generator holds. *)

let load_bench ~scenarios () =
  banner "LOAD: pipelined load against an ifc serve subprocess";
  let module Conn = Ifc_server.Conn in
  let module Loadgen = Ifc_server.Loadgen in
  let ifc =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ifc.exe"
  in
  if not (Sys.file_exists ifc) then
    Fmt.epr "load bench skipped: %s not built@." ifc
  else
    List.iter
      (fun (clients, window, requests) ->
        let sock =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ifc-load-%d-%d.sock" (Unix.getpid ()) clients)
        in
        (try Sys.remove sock with Sys_error _ -> ());
        let argv =
          [|
            ifc; "serve"; "--socket"; sock; "--quiet"; "--shards"; "2";
            "--jobs"; "2"; "--max-connections"; string_of_int (clients + 16);
          |]
        in
        let pid =
          Unix.create_process ifc argv Unix.stdin Unix.stdout Unix.stderr
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            try Sys.remove sock with Sys_error _ -> ())
          (fun () ->
            let cfg =
              {
                Loadgen.endpoint = Conn.Unix_socket sock;
                clients;
                window;
                requests;
                distinct = 32;
                ops = [ Loadgen.Check ];
                name = "load";
                retry_for = 10.;
              }
            in
            let r = Loadgen.run cfg in
            Fmt.pr
              "%d clients x %d requests (window %d): %.0f req/s over %.2f s; \
               p50 %.2f ms, p95 %.2f ms, p99 %.2f ms; ok %d, failed %d, \
               protocol errors %d, connect errors %d@."
              clients requests window r.Loadgen.throughput_rps
              r.Loadgen.duration_s r.Loadgen.p50_ms r.Loadgen.p95_ms
              r.Loadgen.p99_ms r.Loadgen.ok r.Loadgen.failed
              r.Loadgen.protocol_errors r.Loadgen.connect_errors;
            let tag name = Printf.sprintf "c%d_%s" clients name in
            metric_i "load" (tag "clients") clients;
            metric_i "load" (tag "window") window;
            metric_f "load" (tag "certs_per_sec") r.Loadgen.throughput_rps;
            metric_f "load" (tag "p50_ms") r.Loadgen.p50_ms;
            metric_f "load" (tag "p95_ms") r.Loadgen.p95_ms;
            metric_f "load" (tag "p99_ms") r.Loadgen.p99_ms;
            metric_i "load" (tag "ok") r.Loadgen.ok;
            metric_i "load" (tag "failed") r.Loadgen.failed;
            metric_i "load" (tag "protocol_errors") r.Loadgen.protocol_errors;
            metric_i "load" (tag "connect_errors") r.Loadgen.connect_errors))
      scenarios

(* ------------------------------------------------------------------ *)
(* STORE: the job-level result store behind [ifc batch --store] and
   [ifc serve --store] — cold (compute and persist), warm (a fresh
   session without preload, so every job is a disk hit whose certificate
   the independent checker re-validates) and preloaded (answered from
   memory) job rates. *)

let store_bench ~corpus () =
  banner
    (Printf.sprintf
       "STORE: the job-level result store over %d programs (cfm + cert per job)"
       corpus);
  let module Store = Ifc_store.Store in
  let stwo = Lattice.stringify two in
  (* Even jobs run under the all-bottom binding, where every program
     certifies and carries a certificate for the warm pass to re-check;
     odd jobs under a random binding, where most are rejected, so the
     verdict comparison sees both outcomes. *)
  let all_low = Binding.make stwo ~default:stwo.Lattice.bottom [] in
  let specs =
    let rng = Prng.create 6029 in
    List.init corpus (fun i ->
        let p = Gen.program rng Gen.default ~size:(20 + (i mod 80)) in
        let binding =
          if i mod 2 = 0 then all_low else random_binding rng stwo p.Ast.body
        in
        Job.make ~id:i
          ~name:(Printf.sprintf "store:%d" i)
          ~lattice:stwo ~binding ~analyses:[ Job.Cfm; Job.Cert ] p)
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ifc-bench-store-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  (* Each pass is a new session: a fresh store handle and an empty memory
     cache, as a restarted [ifc batch --store] would have. *)
  let pass ~preload =
    match Store.open_ dir with
    | Error msg -> failwith ("store bench: " ^ msg)
    | Ok st ->
      let tier = Store.tier st in
      let cache = Cache.create ~capacity:(2 * corpus) () in
      let preloaded = if preload then tier.Ifc_pipeline.Tier.preload cache else 0 in
      (Batch.run ~cache ~store:tier specs, preloaded)
  in
  let verdicts s = List.map Job.verdict_string s.Batch.results in
  let cold, _ = pass ~preload:false in
  let warm, _ = pass ~preload:false in
  let hot, preloaded = pass ~preload:true in
  rm_rf dir;
  let matches = verdicts warm = verdicts cold in
  Fmt.pr "cold: %.0f jobs/s (%d passed, %d failed, %d errored)@."
    (Batch.throughput cold) cold.Batch.passed cold.Batch.failed
    cold.Batch.errored;
  Fmt.pr "warm: %.0f jobs/s; %d disk hits, %d misses; verdicts match cold: %b@."
    (Batch.throughput warm) warm.Batch.store_hits warm.Batch.store_misses
    matches;
  Fmt.pr "preloaded: %.0f jobs/s; %d entries preloaded, %d memory hits@."
    (Batch.throughput hot) preloaded hot.Batch.cache_hits;
  metric_f "store" "cold_jobs_per_sec" (Batch.throughput cold);
  metric_f "store" "warm_jobs_per_sec" (Batch.throughput warm);
  metric_f "store" "preloaded_jobs_per_sec" (Batch.throughput hot);
  metric_i "store" "warm_store_misses" warm.Batch.store_misses;
  metric "store" "warm_verdicts_match" (string_of_bool matches)

(* ------------------------------------------------------------------ *)
(* MODSYS: compositional certification — module summaries persist in
   the store, the link step evaluates residual interface constraints,
   and a one-module edit recomputes one summary plus the link. *)

let modsys_bench ~sizes ~modules () =
  banner
    (Printf.sprintf
       "MODSYS: summary-based linking of %d-module units (cost follows \
        interfaces, not bodies)"
       modules);
  let module Link = Ifc_modsys.Link in
  let module Store = Ifc_store.Store in
  let lat = Lattice.stringify two in
  let low_name = lat.Lattice.bottom in
  (* One export, one import, [size] all-low statements: the interface
     stays constant while the body grows. [salt] perturbs a constant so
     an edited module digests differently. *)
  let make_module ?(salt = 0) ~name ~import size =
    let out = name ^ "_out" in
    let body =
      Ast.seq
        (Ast.assign out (Ast.int (1 + salt))
        :: List.init (max 0 (size - 1)) (fun i ->
               Ast.assign out (Ast.Binop (Ast.Add, Ast.var import, Ast.int i))))
    in
    {
      Ast.iface =
        {
          Ast.m_name = name;
          provides = [ { Ast.iv_name = out; iv_class = low_name } ];
          requires = [ { Ast.iv_name = import; iv_class = low_name } ];
        };
      m_decls = [ Ast.Var_decl { name = out; cls = Some low_name } ];
      m_body = body;
    }
  in
  (* Modules chain: each imports its predecessor's export, the first
     imports the main program's [cfg]. *)
  let make_unit ?edit ~count size =
    let mods =
      List.init count (fun i ->
          let import =
            if i = 0 then "cfg" else Printf.sprintf "m%d_out" (i - 1)
          in
          let salt =
            match edit with Some (j, salt) when j = i -> salt | _ -> 0
          in
          make_module ~salt ~name:(Printf.sprintf "m%d" i) ~import size)
    in
    {
      Ast.modules = mods;
      main =
        Some
          {
            Ast.decls = [ Ast.Var_decl { name = "cfg"; cls = Some low_name } ];
            body = Ast.assign "cfg" (Ast.int 0);
          };
    }
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ifc-bench-modsys-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  (match Store.open_ dir with
  | Error msg -> Fmt.epr "modsys bench skipped: %s@." msg
  | Ok store ->
    (* Body-size sweep at a fixed interface: whole-program CFM on the
       elaboration vs certify-from-scratch (summaries computed) vs
       store-backed (summaries replayed, only the link step runs). *)
    Fmt.pr "%-14s %12s %12s %12s %10s@." "body (stmts)" "whole (us)"
      "scratch (us)" "linked (us)" "reused";
    let agree = ref 0 in
    let rows =
      List.map
        (fun size ->
          let unit_ = make_unit ~count:modules size in
          let whole_verdict = ref false in
          let whole =
            match Link.binding ~lattice:lat unit_ with
            | Error _ -> 0.
            | Ok b ->
              let p = Link.elaborate unit_ in
              time_one (fun () ->
                  whole_verdict := Cfm.certified b p.Ast.body;
                  !whole_verdict)
          in
          let cold = time_one (fun () -> Link.certify ~lattice:lat unit_) in
          ignore (Link.certify ~store ~lattice:lat unit_);
          let reused = ref 0 in
          let warm =
            time_one (fun () ->
                match Link.certify ~store ~lattice:lat unit_ with
                | Ok o ->
                  reused := o.Link.reused;
                  if Bool.equal o.Link.cert_ok !whole_verdict then incr agree;
                  o.Link.ok
                | Error _ -> false)
          in
          Fmt.pr "%-14d %12.1f %12.1f %12.1f %7d/%d@." (size * modules)
            (1e6 *. whole) (1e6 *. cold) (1e6 *. warm) !reused modules;
          (size, warm))
        sizes
    in
    (match (rows, List.rev rows) with
    | (s0, w0) :: _, (s1, w1) :: _ when s0 <> s1 && w0 > 0. ->
      let growth = w1 /. w0
      and body_growth = float_of_int s1 /. float_of_int s0 in
      Fmt.pr
        "@.store-backed link time grew %.1fx while bodies grew %.0fx — the \
         link step follows the (fixed) interfaces@."
        growth body_growth;
      metric_f "modsys" "linked_growth_vs_body_growth" (growth /. body_growth)
    | _ -> ());
    metric "modsys" "link_matches_whole_program"
      (string_of_bool (!agree > 0 && !agree >= List.length sizes));
    (* One-module edit: perturb one module's body; only its summary is
       recomputed, the rest replay from the store, then the link step
       re-runs. *)
    let base = make_unit ~count:modules 200 in
    ignore (Link.certify ~store ~lattice:lat base);
    let computed = ref 0 and reused = ref 0 and salt = ref 0 in
    let t_edit =
      time_one (fun () ->
          incr salt;
          match
            Link.certify ~store ~lattice:lat
              (make_unit ~edit:(modules / 2, !salt) ~count:modules 200)
          with
          | Ok o ->
            computed := o.Link.computed;
            reused := o.Link.reused;
            o.Link.ok
          | Error _ -> false)
    in
    let t_scratch = time_one (fun () -> Link.certify ~lattice:lat base) in
    Fmt.pr
      "one-module edit (%d modules x 200 stmts): %d summary recomputed, %d \
       reused; re-certify %.1f us vs %.1f us from scratch (%.1fx)@."
      modules !computed !reused (1e6 *. t_edit) (1e6 *. t_scratch)
      (t_scratch /. t_edit);
    metric_i "modsys" "edit_summaries_recomputed" !computed;
    metric_i "modsys" "edit_summaries_reused" !reused;
    metric_f "modsys" "edit_speedup_vs_scratch" (t_scratch /. t_edit));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* CLASSES: security classes as printed names. The CLI, the daemon, fuzz
   campaigns and certificates all run over string schemes, built-in ones
   by [Lattice.stringify] and parsed ones by [Lattice.make_from_order],
   both a name-indexed order matrix with join and meet tables, so every
   class operation and every rendering of a job's lattice goes through
   that representation. *)

let classes_bench ~programs () =
  banner "CLASSES: string classes (name-indexed order matrix, join and meet tables)";
  (* ns (median of 5 timed passes) and minor-heap words per call of [op]
     over every ordered pair of classes. *)
  let per_op (elts : string array) op =
    let n = Array.length elts in
    let reps = max 1 (1_000_000 / (n * n)) in
    let ops = float_of_int (reps * n * n) in
    let pass () =
      for _ = 1 to reps do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            ignore (Sys.opaque_identity (op elts.(i) elts.(j)))
          done
        done
      done
    in
    let w0 = Gc.minor_words () in
    pass ();
    let words = (Gc.minor_words () -. w0) /. ops in
    (1e9 *. time_one pass /. ops, words)
  in
  let lattices =
    [ ("two", Lattice.stringify two); ("mls", Lattice.stringify Mls.standard) ]
  in
  Fmt.pr "%-6s %-6s %10s %10s@." "scheme" "op" "ns/op" "words/op";
  List.iter
    (fun (name, (l : string Lattice.t)) ->
      let elts = Array.of_list l.Lattice.elements in
      let row op_name (ns, words) =
        Fmt.pr "%-6s %-6s %10.1f %10.2f@." name op_name ns words;
        metric_f "classes" (Printf.sprintf "%s_%s_ns" name op_name) ns;
        metric_f "classes" (Printf.sprintf "%s_%s_words" name op_name) words
      in
      row "leq" (per_op elts l.Lattice.leq);
      row "equal" (per_op elts l.Lattice.equal);
      row "join" (per_op elts l.Lattice.join);
      row "meet" (per_op elts l.Lattice.meet))
    lattices;
  (* Filling the tables from the native scheme, paid once per build. *)
  let builds = 20 in
  let build_us =
    1e6
    *. time_one (fun () ->
           for _ = 1 to builds do
             ignore (Sys.opaque_identity (Lattice.stringify Mls.standard))
           done)
    /. float_of_int builds
  in
  Fmt.pr "Lattice.stringify mls: %.1f us per build@." build_us;
  metric_f "classes" "mls_build_us" build_us;
  (* Rendering the lattice into a job's digest payload. *)
  let mls = List.assoc "mls" lattices in
  let renders = 50 in
  let to_text_us =
    1e6
    *. time_one (fun () ->
           for _ = 1 to renders do
             ignore (Sys.opaque_identity (Ifc_lattice.Spec.to_text mls))
           done)
    /. float_of_int renders
  in
  Fmt.pr "Spec.to_text on mls: %.1f us@." to_text_us;
  metric_f "classes" "mls_to_text_us" to_text_us;
  (* CFM over string classes on one fixed generated program set. Even
     programs get the least binding that certifies them with one
     variable held at top, odd ones a random binding, which CFM almost
     always rejects. *)
  List.iter
    (fun (name, lat) ->
      let rng = Prng.create 13 in
      let cases =
        List.init programs (fun i ->
            let p = Gen.program rng Gen.default ~size:200 in
            let b =
              if i mod 2 = 1 then random_binding rng lat p.Ast.body
              else
                let v = Sset.choose (Ifc_lang.Vars.all_vars p.Ast.body) in
                match Infer.infer lat ~fixed:[ (v, lat.Lattice.top) ] p with
                | Ok b -> b
                | Error _ -> invalid_arg "classes: inference failed"
            in
            (b, p.Ast.body))
      in
      let certified =
        List.length (List.filter (fun (b, body) -> Cfm.certified b body) cases)
      in
      let ms =
        1e3
        *. time_one (fun () ->
               List.iter
                 (fun (b, body) -> ignore (Sys.opaque_identity (Cfm.certified b body)))
                 cases)
      in
      Fmt.pr "CFM over %d %s programs (size 200): %.2f ms, %d certified@." programs
        name ms certified;
      metric_f "classes" (name ^ "_cfm_ms") ms;
      metric_i "classes" (name ^ "_cfm_certified") certified)
    lattices

(* ------------------------------------------------------------------ *)
(* FRONTEND: the stages every request runs before its cache lookup. *)

let frontend_bench () =
  banner "FRONTEND: lex, parse, check, print and digest one request's program";
  let module Lexer = Ifc_lang.Lexer in
  let module Pretty = Ifc_lang.Pretty in
  let module Wellformed = Ifc_lang.Wellformed in
  let module Builtin = Ifc_lattice.Builtin in
  (* The daemon benchmark's program shape (eight integer variables, two
     semaphores) at its two sizes: 200 as in check-hot and
     check-cold-mls, 30 as in cert-store. *)
  let cfg = { Gen.default with Gen.vars = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] } in
  List.iter
    (fun size ->
      let rng = Prng.create 19 in
      let programs = List.init 64 (fun _ -> Gen.program rng cfg ~size) in
      let texts = List.map Pretty.program_to_string programs in
      let jobs scheme =
        let lattice = Option.get (Builtin.find scheme) in
        List.map
          (fun p ->
            let names = Sset.elements (Ifc_lang.Vars.all_vars p.Ast.body) in
            let binding =
              Binding.make lattice
                (List.map (fun v -> (v, Prng.choose rng lattice.Lattice.elements)) names)
            in
            Job.make ~id:0 ~name:"frontend" ~lattice ~binding p)
          programs
      in
      let bytes = List.fold_left (fun a t -> a + String.length t) 0 texts in
      Fmt.pr "size %d: %d programs, %.0f bytes each@." size (List.length texts)
        (float_of_int bytes /. float_of_int (List.length texts));
      metric_f "frontend" (Printf.sprintf "s%d_bytes" size)
        (float_of_int bytes /. float_of_int (List.length texts));
      let row name (us, words, major) =
        Fmt.pr "  %-12s %9.1f us %9.0f words %9.0f major words per program@." name us
          words major;
        metric_f "frontend" (Printf.sprintf "s%d_%s_us" size name) us;
        metric_f "frontend" (Printf.sprintf "s%d_%s_words" size name) words;
        metric_f "frontend" (Printf.sprintf "s%d_%s_major_words" size name) major
      in
      row "tokenize" (per_item texts Lexer.tokenize);
      row "parse" (per_item texts Parser.parse_program);
      row "wellformed" (per_item programs Wellformed.errors);
      row "print" (per_item programs Pretty.program_to_string);
      row "digest_two" (per_item (jobs "two") Job.digest);
      row "digest_mls" (per_item (jobs "mls") Job.digest))
    [ 200; 30 ]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel). *)

let micro () =
  banner "micro-benchmarks (Bechamel, ns/run)";
  let open Bechamel in
  let rng = Prng.create 1 in
  let p100 = Gen.program rng Gen.default ~size:100 in
  let b100 = random_binding rng two p100.Ast.body in
  let p100_proof = Generate.theorem1 b100 p100.Ast.body in
  let mls = Mls.standard in
  let mls_elts = Array.of_list mls.Lattice.elements in
  let fig3_b = Binding.make two (List.map (fun v -> (v, high)) Paper.fig3_vars) in
  let seq_p = Paper.fig3_sequential_equivalent in
  let tests =
    [
      Test.make ~name:"cfm-certify-100stmt"
        (Staged.stage (fun () -> Cfm.certified b100 p100.Ast.body));
      Test.make ~name:"cfm-analyze-100stmt"
        (Staged.stage (fun () -> Cfm.analyze b100 p100.Ast.body));
      Test.make ~name:"denning-certify-100stmt"
        (Staged.stage (fun () ->
             Denning.certified ~on_concurrency:`Ignore b100 p100.Ast.body));
      Test.make ~name:"infer-constraints-100stmt"
        (Staged.stage (fun () -> Infer.constraints p100.Ast.body));
      Test.make ~name:"thm1-generate-100stmt"
        (Staged.stage (fun () -> Generate.theorem1 b100 p100.Ast.body));
      Test.make ~name:"proof-check-100stmt"
        (Staged.stage (fun () -> Check.check ~interference:`Trust two p100_proof));
      Test.make ~name:"cfm-certify-fig3"
        (Staged.stage (fun () -> Cfm.certified fig3_b Paper.fig3.Ast.body));
      Test.make ~name:"prove-fig3"
        (Staged.stage (fun () -> Invariance.decide fig3_b Paper.fig3.Ast.body));
      Test.make ~name:"mls-join"
        (Staged.stage (fun () -> mls.Lattice.join mls_elts.(5) mls_elts.(17)));
      Test.make ~name:"mls-leq"
        (Staged.stage (fun () -> mls.Lattice.leq mls_elts.(5) mls_elts.(17)));
      Test.make ~name:"parse-fig3"
        (Staged.stage
           (let src = Ifc_lang.Pretty.program_to_string Paper.fig3 in
            fun () -> Parser.parse_program src));
      Test.make ~name:"run-fig3-roundrobin"
        (Staged.stage (fun () ->
             Scheduler.run_program ~strategy:`Round_robin ~inputs:[ ("x", 1) ]
               Paper.fig3));
      Test.make ~name:"run-sequential-equivalent"
        (Staged.stage (fun () ->
             Scheduler.run_program ~strategy:`Leftmost ~inputs:[ ("x", 1) ] seq_p));
      Test.make ~name:"entail-policy-7vars"
        (Staged.stage
           (let inv = Generate.invariant_of fig3_b Paper.fig3.Ast.body in
            fun () -> Entail.check two inv inv));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let grouped = Test.make_grouped ~name:"ifc" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) results []) in
  Fmt.pr "%-40s %14s %8s@." "benchmark" "ns/run" "r^2";
  List.iter
    (fun name ->
      let ols_result = Hashtbl.find results name in
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols_result) in
      Fmt.pr "%-40s %14.1f %8.3f@." name estimate r2)
    names;
  metric_i "micro" "benchmarks" (List.length names)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let sections =
    match List.filter (fun a -> a <> "quick") args with
    | [] | [ "all" ] ->
      [ "tables"; "fig3"; "theorems"; "strength"; "ablation"; "por"; "scaling";
        "ni"; "pipeline"; "store"; "modsys"; "fuzz"; "lint"; "dataflow";
        "chan"; "cert"; "load"; "classes"; "frontend"; "micro" ]
    | s -> s
  in
  let corpus = if quick then 100 else 400 in
  let sizes = if quick then [ 100; 1000; 10_000 ] else [ 100; 1000; 10_000; 100_000 ] in
  let run = function
    | "tables" -> fig2_table ()
    | "fig3" -> fig3_report ()
    | "theorems" -> theorems ~corpus ()
    | "strength" -> strength ~corpus:(corpus / 2) ()
    | "ablation" -> ablation ~corpus ()
    | "por" -> por ~corpus:(if quick then 60 else 150) ()
    | "scaling" -> scaling ~sizes ()
    | "ni" -> soundness ~corpus:(if quick then 15 else 30) ()
    | "pipeline" -> pipeline ~corpus:(if quick then 60 else 240) ()
    | "store" -> store_bench ~corpus:(if quick then 40 else 120) ()
    | "modsys" ->
      modsys_bench
        ~sizes:(if quick then [ 10; 100; 1000 ] else [ 10; 100; 1000; 4000 ])
        ~modules:8 ()
    | "fuzz" -> fuzz_bench ~cases:(if quick then 40 else 150) ()
    | "lint" -> lint_bench ~corpus:(if quick then 200 else 800) ()
    | "dataflow" -> dataflow_bench ~corpus:(if quick then 200 else 800) ()
    | "chan" -> chan_bench ~corpus:(if quick then 150 else 500) ()
    | "cert" -> cert_bench ~corpus:(if quick then 60 else 200) ()
    | "load" ->
      load_bench
        ~scenarios:
          (if quick then [ (64, 4, 20) ]
           else [ (64, 8, 50); (1000, 4, 10) ])
        ()
    | "classes" -> classes_bench ~programs:20 ()
    | "frontend" -> frontend_bench ()
    | "micro" -> micro ()
    | other -> Fmt.epr "unknown section %S@." other
  in
  List.iter run sections
