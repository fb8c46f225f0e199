(** Parallel differential fuzzing campaigns.

    A campaign draws [cases] seeded random bound programs — rotating
    through generator profiles covering sequential code, concurrency,
    arrays, semaphore-heavy synchronization and message passing — and
    fans them out over an {!Ifc_pipeline.Pool} of domains. Each case runs
    the full analyzer matrix ({!Oracle.run}); disagreements are
    classified against the paper's hierarchy ({!Classify}); channel
    programs additionally exercise the executable
    distributed-noninterference check and the channel-lint cross-checks.
    Soundness inversions are shrunk to minimal programs on the
    coordinating domain ({!Shrink.minimize}), deduplicated by content
    digest, and persisted to the regression corpus ({!Corpus.write});
    expected strictness gaps are counted.

    Determinism: every case derives its own PRNG purely from
    [(config.seed, case index)] and its oracle seed from that stream, and
    results land in per-case slots aggregated in index order — so the
    summary, the report and the corpus are byte-identical for a fixed
    seed at {e any} worker count. Wall-clock timing is deliberately kept
    out of {!pp_summary} and {!summary_json}; [time_budget] soak runs
    trade this reproducibility for coverage (late cases are marked timed
    out, and which ones depends on scheduling). *)

type config = {
  cases : int;  (** Random cases to draw (planted cases are extra). *)
  seed : int;
  jobs : int;  (** Worker domains. *)
  size_min : int;  (** Requested {!Ifc_lang.Gen} size range. *)
  size_max : int;
  ni_pairs : int;  (** Oracle input pairs per case. *)
  max_states : int;  (** Oracle state-space budget per exploration. *)
  time_budget : float option;  (** Soak deadline in seconds. *)
  shrink_budget : int;  (** {!Shrink.minimize} evaluation budget. *)
  corpus_dir : string option;  (** Where shrunk inversions persist. *)
  store_dir : string option;
      (** Replay cases against the persistent {!Ifc_store.Store} at this
          directory: each case's fresh CFM verdict is compared with the
          stored one under the pipeline's content address (a CFM-only
          {!Ifc_pipeline.Job} over the campaign lattice). Divergence
          classifies as the [store-stale] inversion; misses write the
          honest verdict back, so a second campaign over the same
          directory replays every case. Forced-CFM planted cases never
          touch the store. *)
  plants : Ifc_support.Plant.t list;
      (** Test hooks ([IFC_PLANT] in the CLI; see {!Ifc_support.Plant}).
          Each enabled fuzz plant appends its planted cases after the
          [cases] random ones, in registry order whatever the list's
          order: a program (or, for [refine-unsound], a module pair)
          whose verdict is forced wrong, simulating a broken analyzer,
          certificate pipeline or store. The campaign must classify each
          as its inversion, shrink it, and persist it with honest
          verdicts:
          - [inversion]: a direct leak certified by force, classified
            [unsound-certification] and shrunk to the single [y := x];
          - [cert-inversion]: a provable program whose certificate
            round-trip is forced to fail ([cert-inversion]);
          - [lint-unsound]: a [wait] nobody signals, with the
            concurrency analyzer forced to all-safe
            ([deadlock-unsound]);
          - [chan-unsound]: a [recv] nobody sends to, forced the same
            way ([chan-deadlock-unsound]);
          - [store-stale]: an all-low program whose store entry is
            written with the flipped CFM verdict before the campaign
            runs ([store-stale]); uses [store_dir] when set, else a
            seed-derived scratch directory;
          - [dataflow-unsound]: two cases, a bogus pruned arm at a
            statement every execution steps ([prune-unsound]) and a
            leak whose flow witness has its sink span corrupted
            ([witness-bogus]);
          - [refine-unsound]: {!Modfuzz.planted}, with the refinement
            claim forced to accepted ([refine-unsound]); the swapped
            unit persists in linked syntax.
          [stall:MS] adds no case. *)
  refine_cases : int;
      (** Honest refinement cases ({!Modfuzz.generate}) appended after
          every planted case: module pair plus mutated replacement, the
          compositional claim taken at face value, claimed-safe swaps
          dynamically attacked by the executor. On a healthy toolchain
          all of them land on [refine-accepted] / [refine-rejected]. *)
}

val default : config

val profiles : (string * Ifc_lang.Gen.config) list
(** The generator rotation, in case-index order: [seq], [conc], [arr],
    [sem], [chan]. *)

type counterexample = {
  case_index : int;
  profile : string;
  label : string;  (** The inversion's {!Classify.inversion_label}. *)
  program : Ifc_lang.Ast.program;  (** Shrunk. *)
  binding : string Ifc_core.Binding.t;
  original_statements : int;
  shrunk_statements : int;
  shrink : Shrink.stats;
  digest : string;
      (** The job key of a CFM-only job over (shrunk program, binding) on
          the campaign lattice. *)
  corpus_path : string option;
      (** [None] when no corpus directory was given or an identical
          counterexample was already persisted this campaign. *)
}

type summary = {
  seed : int;
  cases : int;
  completed : int;
  timed_out : int;
  errors : int;  (** Worker exceptions (always a bug; exit code 1). *)
  class_counts : (string * int) list;
      (** Primary label per case, tallied over {!Classify.class_labels}
          in canonical order. *)
  inversion_cases : int;  (** Cases with at least one inversion. *)
  gap_cases : int;  (** Cases with at least one expected gap. *)
  oracle_pairs_tested : int;
  oracle_pairs_skipped : int;
  shrink_steps : int;
  shrink_evals : int;
  counterexamples : counterexample list;
  elapsed_ns : int64;  (** For logs and benches only — never printed. *)
}

val run : ?sink:Ifc_pipeline.Telemetry.sink -> config -> summary
(** Execute the campaign. Per-case, per-shrink and summary events go to
    [sink] as JSONL (event order across workers is nondeterministic;
    everything else is not). *)

val pp_summary : Format.formatter -> summary -> unit
(** The human report — deterministic for a fixed seed at any worker
    count (no timing, no worker count). *)

val summary_json : summary -> string
(** One machine-readable JSON line with the same determinism guarantee. *)

val exit_code : summary -> int
(** [2] if any inversion was found, [1] on worker errors, else [0]. *)
