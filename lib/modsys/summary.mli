(** Per-module flow summaries: the symbolic instance of Figure 2 behind
    compositional certification.

    [summarize] runs {!Ifc_core.Cfm.fold} over a module body with the
    module's imports held {e symbolic}: a class is the join of a concrete
    part with the (unknown) classes of the imports it mentions, a [mod]
    the meet of a concrete floor with import classes. Every certification
    check the fold performs decomposes into atomic comparisons —
    [join(a, b) <= X] iff [a <= X] and [b <= X]; [A <= meet(B, C)] iff
    [A <= B] and [A <= C] — so each check either discharges now (both
    sides concrete: folded into [locals_ok]) or leaves a residual atomic
    constraint over import classes ({!Ifc_cert.Linked.constr}). Link-time
    evaluation therefore costs the number of {e distinct} atoms — bounded
    by interface size and lattice size, never by module body size.

    The equivalence "summary resolved under a linked binding = direct CFM
    on the body" is under test on random modules. {!resolve} persists
    summaries through the store's summary seam
    ({!Ifc_store.Store.add_summary}), keyed by the module's structural
    digest plus the classification context. *)

module Lattice := Ifc_lattice.Lattice
module Linked := Ifc_cert.Linked
module Store := Ifc_store.Store

val summarize :
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.module_unit ->
  (Linked.summary, string) result
(** [summarize ~lattice m] computes [m]'s summary. [?default] is the
    class of undeclared locals (the lattice bottom when omitted), and
    must match the default used for the linked binding later. [Error]
    reports an unresolvable class name in a declaration or interface
    bound. The summary's [cert_digest] is [None]; {!Link.emit} fills it
    when a component certificate is emitted. *)

val resolve :
  ?store:Store.t ->
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.module_unit ->
  (Linked.summary * bool, string) result
(** [resolve ?store ~lattice m] is [m]'s summary and whether [store]
    answered it. With [store], a summary stored under [m]'s key — an MD5
    over the module's structural digest, the lattice's name and
    elements, and the default class — is reused; otherwise the summary
    is computed by {!summarize} and stored under that key. Two sessions
    with equal contexts share summaries; any difference changes every
    key. [Error] is {!summarize}'s, prefixed with the module name. *)

val resolve_smod :
  lattice:string Lattice.t ->
  cls:(string -> string option) ->
  Linked.smod ->
  string option
(** Evaluate a symbolic [mod] under a concrete class assignment for
    imports; [None] if an import is unbound. *)

val resolve_sflow :
  lattice:string Lattice.t ->
  cls:(string -> string option) ->
  Linked.sflow ->
  string Ifc_lattice.Extended.elt option

val eval_constr :
  lattice:string Lattice.t ->
  cls:(string -> string option) ->
  Linked.constr ->
  bool option
(** Evaluate one residual constraint; [None] if a mentioned name is
    unbound or a constant does not parse. *)
