(** Flow assertions (paper §3.1).

    An assertion is a conjunction of inequalities between class
    expressions, [e1 <= e2]. The paper's [{V, L, G}] notation partitions an
    assertion into a part [V] free of [local]/[global], a bound
    [local <= l], and a bound [global <= g]; {!triple_of} recovers that
    partition when it exists, which the structural rules (alternation,
    iteration, concurrency) require. *)

type 'a atom = { lhs : 'a Cexpr.t; rhs : 'a Cexpr.t }

type 'a t = 'a atom list
(** Conjunction; the empty list is [true]. *)

val atom : 'a Cexpr.t -> 'a Cexpr.t -> 'a atom

val subst : (Cexpr.sym -> 'a Cexpr.t option) -> 'a t -> 'a t
(** Simultaneous substitution in both sides of every atom. *)

val equal : 'a Ifc_lattice.Lattice.t -> 'a t -> 'a t -> bool
(** Equality up to atom normalization, atom order and duplication. A
    physically equal pair is equal without normalising either side. *)

val distinct : 'a t list -> 'a t array * int array
(** [distinct ps] numbers the distinct assertions of [ps] in order of
    first occurrence: [(reps, slots)], where the [k]-th element of [ps]
    is [reps.(slots.(k))]. Two assertions are the same when they are
    physically equal or structurally equal ([=]); the lattice element
    types of {!Ifc_lattice} are plain data (integers, strings, pairs,
    variants), so the comparison never raises.
    Any judgment that is a function of the assertion alone, such as an
    entailment with fixed other operands, can be decided once per
    representative. Cost: O(|ps| × |reps|) comparisons, pointers first. *)

val holds : 'a Ifc_lattice.Lattice.t -> (Cexpr.sym -> 'a) -> 'a t -> bool
(** [holds l env p] evaluates [p] under the valuation [env]. *)

val syms : 'a t -> Cexpr.sym list
(** All symbols of the assertion, without duplicates. *)

val policy : 'a Ifc_core.Binding.t -> string list -> 'a t
(** [policy b vars] is Definition 6's policy assertion for binding [b]
    restricted to [vars]: the conjunction of [v̄ <= sbind(v)]. *)

(** The [{V, L, G}] decomposition: [V] mentions neither [local] nor
    [global]; the bounds [l] and [g] are class expressions free of both. *)
type 'a triple = { v : 'a t; l : 'a Cexpr.t; g : 'a Cexpr.t }

val of_triple : 'a triple -> 'a t
(** [V @ [local <= l; global <= g]]. *)

val triple_of : 'a Ifc_lattice.Lattice.t -> 'a t -> 'a triple option
(** [triple_of l p] recovers the decomposition: exactly one atom bounding
    [Local], one bounding [Global] (joining multiple bounds if present),
    every other atom free of both symbols, and the bounds themselves free
    of both. [None] when [p] is not in [{V,L,G}] form. *)

val pp : 'a Ifc_lattice.Lattice.t -> Format.formatter -> 'a t -> unit
