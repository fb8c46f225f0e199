(** Static bindings (paper, Definition 3).

    A static binding maps every program variable — semaphores included — to
    a class of the scheme. Constants are bound to [low] and expressions to
    the join of their parts, so only the variable map is stored. *)

type 'a t

val lattice : 'a t -> 'a Ifc_lattice.Lattice.t

val make :
  'a Ifc_lattice.Lattice.t -> ?default:'a -> (string * 'a) list -> 'a t
(** [make l bindings] binds each named variable; variables not listed are
    bound to [default] (the lattice bottom if omitted). *)

val of_program :
  'a Ifc_lattice.Lattice.t ->
  ?default:'a ->
  ?overrides:(string * 'a) list ->
  Ifc_lang.Ast.program ->
  ('a t, string) result
(** [of_program l p] resolves the [class] annotations of [p]'s declarations
    against [l]; [overrides] take precedence over annotations. Returns
    [Error _] for an annotation naming no class of [l]. *)

val of_spec :
  'a Ifc_lattice.Lattice.t -> ?default:'a -> string -> ('a t, string) result
(** [of_spec l text] parses lines of the form ["name : class"] (blank lines
    and [#]-comments ignored). Class syntax is whatever [l.of_string]
    accepts, so MLS labels like [secret:{NUC}] work. *)

val sbind : 'a t -> string -> 'a
(** [sbind b v] is the class of variable [v] (Definition 3's sbind). *)

val bind : 'a t -> string -> 'a -> 'a t
(** [bind b v c] is [b] with [v] rebound to [c]. *)

val expr_class : 'a t -> Ifc_lang.Ast.expr -> 'a
(** [expr_class b e] is [sbind(e)]: constants are [low], [e1 op e2] is
    [sbind(e1) ⊕ sbind(e2)] (Definitions 2 and 3). *)

val default : 'a t -> 'a
(** [default b] is the class of every variable [b] does not list. *)

val bindings : 'a t -> (string * 'a) list
(** All explicit bindings, sorted by name. *)

val names : 'a t -> string list

val pp : Format.formatter -> 'a t -> unit
