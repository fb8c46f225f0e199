(** Entailment between flow assertions ([P |- Q], paper §3.1).

    Two procedures:

    - {!check} — a sound syntactic derivation search: decompose each goal
      atom's left join and discharge the pieces by join-upper-bound,
      constant comparison, and transitive chaining through hypotheses. It
      validates every entailment the Theorem-1 construction produces, and
      never accepts a false entailment (the property suite tests it against
      {!decide}).

    - {!decide} — sound and complete for the assertion language, by
      enumerating all valuations of the free symbols over the (finite)
      scheme: [P |- Q] iff every valuation satisfying [P] satisfies [Q].
      Exponential, so bounded by [max_valuations]; intended for tests and
      small problems. *)

val check : 'a Ifc_lattice.Lattice.t -> 'a Assertion.t -> 'a Assertion.t -> bool
(** Sound, incomplete, fast. The symbols of each hypothesis's left side
    are collected once per call (they do not depend on the lattice);
    every symbol lookup then scans those lists, and a hypothesis's right
    side is normalised only when a lookup follows it. Each goal atom
    normalises its two sides once. The certificate checker makes about
    130 calls per ~35-statement cobegin certificate, and they are most of
    its cost. *)

val decide :
  ?max_valuations:int ->
  'a Ifc_lattice.Lattice.t ->
  'a Assertion.t ->
  'a Assertion.t ->
  (bool, string) result
(** Sound and complete; [Error _] when the valuation count would exceed
    [max_valuations] (default [200_000]). *)
