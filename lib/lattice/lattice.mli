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

val pp : 'a t -> Format.formatter -> 'a -> unit
(** [pp l] is a pretty-printer for elements of [l]. *)

val mem : 'a t -> 'a -> bool
(** [mem l x] is true iff [x] is an element of [l]. *)

val joins : 'a t -> 'a list -> 'a
(** [joins l xs] is the least upper bound of [xs] ([l.bottom] when empty). *)

val meets : 'a t -> 'a list -> 'a
(** [meets l xs] is the greatest lower bound of [xs] ([l.top] when empty).
    This convention — the meet of no constraints is the most permissive
    class — is exactly what [mod] of a statement that modifies nothing
    requires. *)

val lt : 'a t -> 'a -> 'a -> bool
(** [lt l x y] is strict ordering: [leq x y] and not [equal x y]. *)

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

val make_from_order :
  name:string ->
  elements:'a list ->
  leq:('a -> 'a -> bool) ->
  to_string:('a -> string) ->
  ('a t, string) result
(** [make_from_order ~name ~elements ~leq ~to_string] builds a lattice from
    a finite set and its partial order. Returns [Error _] when the carrier
    is empty, the order is not reflexive or transitive, two elements print
    alike, or some pair lacks a least upper or greatest lower bound.
    {!Spec.parse} builds every parsed scheme, and so every certificate's
    scheme, through this function.

    Construction makes n{^2} [leq] queries to fill an n×n order matrix,
    then checks the laws and fills n×n join and meet tables from the
    matrix alone: O(n{^3}) array reads, O(n{^2}) words.

    Elements are identified by their printed names, as in {!stringify}:
    an operand is found by a linear scan of the names, by pointer and then
    by content, and [leq], [equal], [join] and [meet] are then matrix or
    table reads. With [to_string = Fun.id] no operation allocates. [equal]
    is [leq] both ways; [of_string] accepts exactly the printed names.
    An operand that names no element is below and equal to nothing, and
    [join] and [meet] raise [Invalid_argument] on it. The value is never
    mutated after it is built, so it may be shared across threads and
    domains. *)

val rename : string -> 'a t -> 'a t
(** [rename name l] is [l] with its [name] replaced. *)

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

val stringify : 'a t -> string t
(** [stringify l] is the same scheme with elements represented by their
    printed names — the uniform representation of the CLI, the daemon,
    job digests, fuzz campaigns and certificates, so its operations run in
    CFM's inner loop.

    Each printed name indexes a native element. Building the value prints
    every element once and sorts the elements by [l.compare]: O(|C| log |C|)
    [compare] calls, with no join or meet table. Afterwards every name the
    value hands out — [elements], [bottom], [top], and the results of
    [join], [meet] and [of_string] — is one of |C| shared strings.

    Cost of an operation: each operand is found by a linear scan of the
    names, first by pointer and then by content (O(|C|); |C| ≤ 32 for the
    built-in schemes, see {!Builtin}), then the native operation runs.
    When one operand of [join] or [meet] lies below the other, the result
    is that operand's name; otherwise the native result is found by binary
    search in [l.compare] order. So [leq] allocates nothing, and [join]
    and [meet] allocate only what the native operation does. Only an
    operand that is not a canonical name (["secret:{EUR,NUC}"] for
    ["secret:{NUC,EUR}"]) is parsed with [l.of_string].

    The value is never mutated after it is built, so it may be shared
    across threads and domains. [l] must satisfy the lattice laws and
    [l.compare] must agree with [l.equal]; [leq], [join] and [meet] raise
    [Invalid_argument] on a name [l.of_string] rejects. *)
