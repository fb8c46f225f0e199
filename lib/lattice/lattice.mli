(** Finite security classification schemes (paper, Definition 1).

    A security classification scheme is a finite complete lattice [(C, <=)].
    Lattices are represented as first-class values — a record of operations
    over an abstract element type ['a] — so every analysis in the toolkit is
    polymorphic in the scheme: the same CFM code runs over the two-point
    {low, high} lattice, a 65536-element powerset of categories, or a lattice
    parsed at runtime from a user specification. *)

type 'a t = {
  name : string;  (** Human-readable scheme name. *)
  elements : 'a list;  (** Every element of [C]; finite by Definition 1. *)
  equal : 'a -> 'a -> bool;
  compare : 'a -> 'a -> int;  (** A total order used only for containers. *)
  leq : 'a -> 'a -> bool;  (** The partial order [<=]. *)
  join : 'a -> 'a -> 'a;  (** Least upper bound [⊕]. *)
  meet : 'a -> 'a -> 'a;  (** Greatest lower bound [⊗]. *)
  bottom : 'a;  (** [low], the minimum of [C]. *)
  top : 'a;  (** [high], the maximum of [C]. *)
  to_string : 'a -> string;
  of_string : string -> ('a, string) result;
}

val joins : 'a t -> 'a list -> 'a
(** [joins l xs] is the least upper bound of [xs] ([l.bottom] when empty). *)

val meets : 'a t -> 'a list -> 'a
(** [meets l xs] is the greatest lower bound of [xs] ([l.top] when empty).
    This convention — the meet of no constraints is the most permissive
    class — is exactly what [mod] of a statement that modifies nothing
    requires. *)

val comparable : 'a t -> 'a -> 'a -> bool
(** [comparable l x y] is true iff [x <= y] or [y <= x]. *)

val covers : 'a t -> ('a * 'a) list
(** [covers l] is the covering relation (Hasse diagram edges): pairs
    [(x, y)] with [x < y] and no [z] strictly between, in the order of
    [l.elements] (by [x], then by [y]).

    Cost: |C|{^2} [leq] and [equal] queries fill a strict-order matrix,
    and the covering test reads only that matrix (O(|C|{^3}) array reads,
    |C|{^2} words of memory). {!Spec.to_text}, and therefore every job
    digest and certificate, renders a lattice through this function. *)

val height : 'a t -> int
(** [height l] is the length of the longest chain minus one. *)

val to_dot : 'a t -> string
(** [to_dot l] renders the Hasse diagram (covering edges, bottom at the
    bottom) as a Graphviz digraph — pipe through [dot -Tsvg] to see the
    scheme. *)

val dual : ?name:string -> 'a t -> 'a t
(** [dual l] is the order-theoretic dual: [leq] flipped, [join]/[meet] and
    [bottom]/[top] swapped. Integrity policies (Biba) are the dual of
    confidentiality policies: information may flow from high to low
    *integrity*, so running CFM over [dual l] certifies integrity with no
    other change. *)

(** {1 String classes}

    The CLI, the daemon, job digests, fuzz campaigns and certificates all
    represent a class by its printed name. Both sources of such a scheme,
    {!make_from_order} and {!stringify}, build the same value: the
    canonical names, an n×n order matrix and n×n join and meet tables,
    all indexed by a name's position.

    An operand is found by a linear scan of the names, by pointer and
    then by content; [leq], [equal], [join] and [meet] are then matrix or
    table reads, and on canonical names none of them allocates. [equal]
    is [leq] both ways, and [compare] is [String.compare]. Every name the value hands out —
    [elements], [bottom], [top], and the results of [join], [meet] and
    [of_string] — is one of the n shared strings. The value is never
    mutated after it is built, so it may be shared across threads and
    domains.

    The sources differ only in how a name that is not canonical
    resolves, as each function says. Whatever the source, [equal] answers
    [false] on such a name unless it resolves, and never raises. *)

val make_from_order :
  name:string ->
  elements:string list ->
  leq:(string -> string -> bool) ->
  (string t, string) result
(** [make_from_order ~name ~elements ~leq] builds a lattice from a finite
    set of names and its partial order. Returns [Error _] when the carrier
    is empty, the order is not reflexive or transitive, two elements have
    the same name, or some pair lacks a least upper or greatest lower
    bound. {!Spec.parse} builds every parsed scheme, and so every
    certificate's scheme, through this function.

    Construction makes n{^2} [leq] queries to fill the order matrix, then
    checks the laws and fills the join and meet tables from the matrix
    alone: O(n{^3}) array reads, O(n{^2}) words.

    Only exact names resolve: [of_string] accepts exactly the names in
    [elements], and any other name is below and equal to nothing, and
    [join] and [meet] raise [Invalid_argument] on it. *)

val stringify : 'a t -> string t
(** [stringify l] is the same scheme with classes represented by their
    printed names.

    Building the value prints every element once and fills the order
    matrix with n{^2} [l.leq] queries. The join and meet tables are
    filled from [l.join] and [l.meet], which run only on incomparable
    pairs (a comparable pair's bound is one of the pair); each result is
    located by [l.equal] among the pair's common bounds. That is paid
    once, 0.13–0.25 ms on [mls] (32 classes), and {!Builtin} builds its
    schemes once, at initialisation. Afterwards no operation on a
    canonical name calls into [l].

    A name that is not canonical (["secret:{EUR,NUC}"] for
    ["secret:{NUC,EUR}"]) is parsed with [l.of_string] and resolves to
    the parsed class's name. [of_string] returns [l.of_string]'s message
    for a name it rejects, and [leq], [join] and [meet] raise
    [Invalid_argument] on one. [l] must satisfy the lattice laws and
    print distinct elements distinctly. *)
