(** The small trusted core: independent validation of proof certificates.

    [check] walks a parsed certificate against the parsed program and
    accepts iff

    - the certificate's program digest matches the program,
    - the recorded binding covers exactly the variables of the program
      body,
    - every node is a correct instance of a Figure 1 rule for the
      statement at its position (with every entailment side-condition
      discharged under the certificate's own lattice),
    - concurrency nodes are interference-free, and
    - the derivation is completely invariant (Definition 7) for the policy
      assertion (Definition 6) of the recorded binding, with constant
      [local]/[global] bounds at the root.

    The checker re-derives nothing: it never constructs a proof, and the
    library does not link against the generator ([ifc_logic_gen]) — the
    dune dependency graph enforces that. Failures carry the preorder path
    of the offending node ([0], [0.2.1], ...), or the pseudo-paths
    [program] / [binding] for header-level mismatches. *)

type failure = { path : string; rule : string; reason : string }

val pp_failure : Format.formatter -> failure -> unit

val check :
  Cert.t -> Ifc_lang.Ast.program -> (unit, failure list) result
(** [check cert program] validates [cert] against [program]. [Error]
    carries every detected failure in walk order; the head names the first
    bad node.

    Cost. Every rule instance is checked; what is shared is work whose
    answer cannot differ. {!Cert.parse} gives equal assertion texts one
    value, so a derivation's assertions are a handful of values repeated
    at most nodes. Interference freedom decides each (distinct assertion,
    sibling action) entailment once and reports a failure at every
    occurrence, in walk order and with the same text; the invariance walk
    keeps its answer per assertion value. Both memos live inside one call,
    keyed by identity or structural equality, so concurrent calls share
    no mutable state. On ~35-statement cobegin programs over the
    two-point lattice this is about 130 entailments per certificate (83
    of them for interference) and 0.54 M words, against 361 (314) and
    3.1 M words when every occurrence was decided (EXPERIMENTS.md,
    CERT). *)
