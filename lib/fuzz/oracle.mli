(** One pass of the full analyzer matrix over a single bound program.

    Runs Denning (concurrency-ignoring), CFM, the flow-sensitive
    extension, the Theorem-1 logic decision, the certificate round-trip
    (when a proof exists, {!Ifc_logic_gen.Emit.of_proof}: serialize it,
    re-parse the bytes, validate with the independent checker), the
    semantic noninterference oracle (bounded exploration,
    termination-insensitive, observer at the lattice bottom), the static
    concurrency analyzer ({!Ifc_analysis.Analyze}), and two bounded
    explorations gathering the dynamic evidence that cross-checks the
    analyzer's claims (one from the all-zero store, one from a
    seed-derived store), and packs the verdicts for
    {!Classify.classify}.

    The noninterference oracle and the evidence explorations are seeded
    explicitly so a verdict tuple is a pure function of [(program,
    binding, ni_seed, ni_pairs, max_states)] — campaigns replay
    bit-identically whatever the worker count.

    [override_cfm] substitutes a forced CFM verdict while every other
    analyzer stays honest; [override_cert] does the same for the
    certificate round-trip verdict; [override_lint:true] forces the
    concurrency analyzer's claims to all-safe ([race_free],
    [deadlock_free], no [must_block], zero findings) while the dynamic
    evidence stays honest — exactly the shape of an unsound analyzer
    ([override_lint:false] forces the all-unsafe claims instead). They
    exist for the campaign's planted-inversion test hooks and for what-if
    experiments; production callers never pass them.

    [override_dataflow:`Prune] injects a bogus pruned span (the span of
    a statement the exploration actually executed) into the dataflow
    leg, and [`Witness] corrupts an emitted flow witness's sink span
    before replay — the two planted-unsoundness hooks behind the
    [prune-unsound] and [witness-bogus] inversion classes.

    [stored_cfm] is the CFM verdict a persistent artifact store returned
    for this program, when the campaign is replaying against one; a
    mismatch with the freshly computed verdict sets
    [Classify.store_divergent] (the [store-stale] inversion). Omitted,
    the field is [false]. *)

val run :
  ?override_cfm:bool ->
  ?override_cert:bool ->
  ?override_lint:bool ->
  ?override_dataflow:[ `Prune | `Witness ] ->
  ?stored_cfm:bool ->
  ni_seed:int ->
  ni_pairs:int ->
  max_states:int ->
  string Ifc_core.Binding.t ->
  Ifc_lang.Ast.program ->
  Classify.verdicts
