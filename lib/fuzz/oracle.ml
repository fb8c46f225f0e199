(* The analyzer matrix: the full verdict tuple over one bound program. *)

module Ast = Ifc_lang.Ast
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Denning = Ifc_core.Denning
module Fs = Ifc_core.Flow_sensitive
module Invariance = Ifc_logic_gen.Invariance
module Emit = Ifc_logic_gen.Emit
module Ni = Ifc_exec.Noninterference
module Explore = Ifc_exec.Explore
module Step = Ifc_exec.Step
module Lattice = Ifc_lattice.Lattice
module Prng = Ifc_support.Prng
module Analyze = Ifc_analysis.Analyze
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Loc = Ifc_lang.Loc
module Witness = Ifc_dataflow.Witness

(* Dynamic cross-check of the concurrency analyzer: two bounded
   explorations, one from the default all-zero store and one from a
   seed-derived store. Witnesses (a race, a reachable deadlock, a
   reachable terminal) are definitive whatever the bound; completeness
   is recorded so absence-based reasoning can be gated on it. *)
(* Generated programs carry dummy spans; the span-level dataflow
   cross-check needs real ones. Pretty-print and re-parse: the AST is
   identical up to spans, so every other leg is unaffected. *)
let with_spans (p : Ast.program) =
  match Parser.parse_program (Pretty.program_to_string p) with
  | Ok q -> q
  | Error _ -> p

let span_contains ~(outer : Loc.span) ~(inner : Loc.span) =
  let leq (a : Loc.pos) (b : Loc.pos) =
    a.Loc.line < b.Loc.line || (a.Loc.line = b.Loc.line && a.Loc.col <= b.Loc.col)
  in
  leq outer.Loc.start inner.Loc.start && leq inner.Loc.stop outer.Loc.stop

let dynamic_evidence ~ni_seed ~max_states (p : Ast.program) =
  let int_vars =
    List.filter_map
      (function
        | Ast.Var_decl { name; _ } -> Some name
        | Ast.Arr_decl _ | Ast.Sem_decl _ | Ast.Chan_decl _ -> None)
      p.Ast.decls
  in
  let rng = Prng.create (ni_seed lxor 0x51ca5) in
  let seeded = List.map (fun v -> (v, Prng.int rng 8)) int_vars in
  let runs =
    [
      Explore.explore_program ~max_states p;
      Explore.explore_program ~max_states ~inputs:seeded p;
    ]
  in
  let any f = List.exists f runs and all f = List.for_all f runs in
  ( any (fun s -> s.Explore.races <> []),
    any (fun s -> s.Explore.deadlocks <> []),
    any (fun s -> s.Explore.terminals <> []),
    all (fun s -> s.Explore.complete && s.Explore.faults = []),
    any (fun s -> s.Explore.chan_races <> []),
    any (fun s -> s.Explore.chan_blocked <> []),
    List.concat_map (fun s -> s.Explore.visited_spans) runs )

let run ?override_cfm ?override_cert ?override_lint ?override_dataflow
    ?stored_cfm ~ni_seed ~ni_pairs ~max_states binding (p : Ast.program) =
  let pn = with_spans p in
  let cfm =
    match override_cfm with
    | Some forced -> forced
    | None -> Cfm.certified binding p.Ast.body
  in
  let denning = Denning.certified ~on_concurrency:`Ignore binding p.Ast.body in
  let fs = Fs.certified binding p.Ast.body in
  let witness = Invariance.witness binding p.Ast.body in
  let prove = Result.is_ok witness in
  (* The certificate leg: render the prove leg's proof, re-parse the
     exact bytes and run the independent checker. Any break anywhere in
     that pipeline is a cert inversion. *)
  let cert_ok =
    match override_cert with
    | Some forced -> forced
    | None -> (
      match witness with
      | Error _ -> true
      | Ok proof -> Result.is_ok (Emit.of_proof ~binding ~program:p proof))
  in
  let lat = Binding.lattice binding in
  let ni =
    Ni.test ~seed:ni_seed ~pairs:ni_pairs ~max_states
      ~observer:lat.Lattice.bottom binding p
  in
  let ( lint_race_free,
        lint_deadlock_free,
        lint_must_block,
        lint_chan_race_free,
        lint_chan_deadlock_free,
        lint_findings ) =
    match override_lint with
    | Some true -> (true, true, false, true, true, 0)
    | Some false -> (false, false, true, false, false, 1)
    | None ->
      let report = Analyze.run p in
      ( report.Analyze.claims.Analyze.race_free,
        report.Analyze.claims.Analyze.deadlock_free,
        report.Analyze.claims.Analyze.must_block,
        report.Analyze.claims.Analyze.chan_race_free,
        report.Analyze.claims.Analyze.chan_deadlock_free,
        List.length report.Analyze.findings )
  in
  let dyn_race, dyn_deadlock, dyn_terminal, dyn_complete, dyn_chan_race,
      dyn_chan_deadlock, visited_spans =
    dynamic_evidence ~ni_seed ~max_states pn
  in
  (* The dataflow leg: prune on the span-bearing program, then refute —
     a pruned arm is claimed unreachable on EVERY input, so one visited
     statement inside it, on any explored run, is a definitive
     counterexample. [`Prune] forces a bogus pruned span (an executed
     statement's own span) to test that this detector fires. *)
  let pruned_spans =
    let honest =
      List.filter_map
        (fun (pr : Ifc_dataflow.Prune.pruned) ->
          if Loc.is_dummy pr.Ifc_dataflow.Prune.p_span then None
          else Some pr.Ifc_dataflow.Prune.p_span)
        (Ifc_dataflow.Prune.analyze pn).Ifc_dataflow.Prune.pruned
    in
    match (override_dataflow, visited_spans) with
    | Some `Prune, sp :: _ -> sp :: honest
    | _ -> honest
  in
  let prune_violated =
    List.exists
      (fun outer ->
        List.exists (fun inner -> span_contains ~outer ~inner) visited_spans)
      pruned_spans
  in
  (* The witness leg: on rejection, produce the source-to-sink chain and
     replay it step by step. [`Witness] corrupts the sink span before the
     replay — a chain pointing at a check that never failed must be
     caught. *)
  let witness_checked, witness_ok =
    match Witness.explain binding pn with
    | None -> (false, true)
    | Some w ->
      let w =
        match override_dataflow with
        | Some `Witness ->
          let shift (pos : Loc.pos) = { pos with Loc.line = pos.Loc.line + 1000 } in
          {
            w with
            Witness.w_sink_span =
              {
                Loc.start = shift w.Witness.w_sink_span.Loc.start;
                stop = shift w.Witness.w_sink_span.Loc.stop;
              };
          }
        | _ -> w
      in
      (true, Witness.replay binding pn w)
  in
  {
    Classify.cfm;
    denning;
    fs;
    prove;
    cert_ok;
    ni_tested = ni.Ni.pairs_tested;
    ni_skipped = ni.Ni.pairs_skipped;
    ni_violations = List.length ni.Ni.violations;
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
    store_divergent =
      (match stored_cfm with
      | Some stored -> not (Bool.equal stored cfm)
      | None -> false);
    prune_spans = List.length pruned_spans;
    prune_violated;
    witness_checked;
    witness_ok;
    (* The refinement leg runs on module pairs, not plain programs; see
       Modfuzz. *)
    refine_checked = false;
    refine_claimed_safe = false;
    refine_dyn_leak = false;
  }
