(** The built-in classification schemes, by the names the CLI, the daemon
    and the fuzz corpus use, with classes as printed names
    ({!Lattice.stringify}).

    Each scheme is built once, when this module initialises, and is never
    mutated afterwards, so one value is safely shared by every request,
    thread and domain. *)

val two : string Lattice.t
(** The two-point scheme [low < high]. *)

val find : string -> string Lattice.t option
(** [find name] is the scheme called [name]: ["two"], ["three"],
    ["four"] ({!Chain.four}) or ["mls"] ({!Mls.standard}). *)

val to_text : string Lattice.t -> string
(** [to_text l] is [Spec.to_text l]. For a scheme that is physically one
    of the built-ins it is the text rendered when this module
    initialised; any other lattice is rendered on each call. *)

val named : string -> string Lattice.t option
(** [named n] is the built-in scheme whose {!Lattice.name} is [n]
    (["two-point"], ["mls-standard"], ...), the name a certificate's
    lattice lines record. *)
