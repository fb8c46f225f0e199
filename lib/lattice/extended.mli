(** Extended classification schemes (paper, Definition 4).

    CFM's [flow] function needs to distinguish "no global flow at all" from
    "a global flow of the least sensitive class": a [while] loop over a
    low-classified condition *does* produce a global flow (of class [low]),
    whereas an assignment produces none. The paper therefore adjoins a new
    minimum element [nil] below the whole scheme. [nil] is the identity of
    [⊕] on the extended scheme, so folding [flow] over components with
    initial value [nil] computes exactly Figure 2's case analysis. *)

type 'a elt = Nil | El of 'a

val make : 'a Lattice.t -> 'a elt Lattice.t
(** [make l] is the extended scheme [C = C' ∪ {nil}] of Definition 4. The
    bottom is [Nil]; the top is [El l.top]; [Nil] prints as ["nil"]. *)

val join : ('a -> 'a -> 'a) -> 'a elt -> 'a elt -> 'a elt
(** [join j x y] is [x ⊕ y] on the extended scheme, with [j] the base
    scheme's join: [Nil] is the identity. CFM folds [flow] with it. *)

val lift : 'a -> 'a elt
(** [lift x] is [El x]. *)

val is_nil : 'a elt -> bool

val get : default:'a -> 'a elt -> 'a
(** [get ~default x] projects back to the base scheme, mapping [Nil] to
    [default]. *)

val pp : 'a Lattice.t -> Format.formatter -> 'a elt -> unit
