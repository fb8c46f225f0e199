(** Linear (totally ordered) classification schemes.

    Chains are the classic military-style hierarchies: every pair of classes
    is comparable, join is [max] and meet is [min]. Elements are represented
    by their level index, [0] being the least sensitive. *)

val make : ?name:string -> string list -> int Lattice.t
(** [make names] is the chain whose levels are [names], ordered from least
    to most sensitive. Raises [Invalid_argument] on an empty or duplicate
    list. *)

val two : int Lattice.t
(** The two-point lattice [{low < high}] used throughout the paper. *)

val three : int Lattice.t
(** [{low < mid < high}]. *)

val four : int Lattice.t
(** [{unclassified < confidential < secret < topsecret}]. *)

val of_size : int -> int Lattice.t
(** [of_size n] is an [n]-level chain with levels named [L0 .. L(n-1)].
    Used by benchmarks to scale lattice height independently of shape. *)
