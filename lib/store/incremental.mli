(** Incremental CFM certification over persistent subtree summaries.

    Figure 2's flow mechanism is syntax-directed: the [mod], [flow] and
    certification verdict of a construct are functions of its children's
    triples plus its own atoms (condition classes, binding lookups) —
    exactly {!Ifc_core.Cfm.combine}. Those triples therefore compose —
    and cache. This module is a memo over [combine]: it keys each
    subtree's triple (its {e summary}) by a structural digest covering
    the subtree's printed form and the certification context (binding
    and default class, scheme, self-check mode), memoises summaries in
    memory, and — when a {!Store} is attached — persists them, so
    re-certifying an edited program recomputes only the {e spine}: the
    nodes from each changed leaf up to the root. Every untouched subtree
    is answered by digest lookup without a single lattice operation.

    The digest pass itself always walks the whole program (hashing is
    the only way to recognise an unchanged subtree), but it performs no
    lattice operations and no check recording; the {!stats} counters
    report how much semantic work was actually redone.

    Results agree exactly with {!Ifc_core.Cfm.certified} — the test
    suite checks the two against each other on random programs. *)

module Binding := Ifc_core.Binding
module Extended := Ifc_lattice.Extended
module Ast := Ifc_lang.Ast

type t

(** {!Ifc_core.Cfm.summary}, re-exported so its fields read as
    [s.Incremental.cert]. *)
type ('c, 'm) triple = ('c, 'm) Ifc_core.Cfm.summary = {
  mod_ : 'm;  (** Meet of the classes the subtree may modify. *)
  flow : 'c Extended.elt;  (** Join of the subtree's global flows. *)
  cert : bool;  (** Is the subtree certified? *)
}

type summary = (string, string) triple

type stats = {
  computed : int;
      (** Summaries computed from children this session — the spine. *)
  reused_memory : int;  (** Summaries answered by the in-memory memo. *)
  reused_disk : int;  (** Summaries answered by the attached store. *)
}

val create :
  ?store:Store.t -> ?self_check:bool -> string Binding.t -> t
(** [create binding] is an incremental certifier for [binding] (and its
    lattice). With [store], summaries computed here are persisted and
    summaries persisted by earlier sessions are reused; without, the
    memo lives only as long as [t]. [self_check] selects the literal
    [j <= i] reading of the composition rule, as in
    {!Ifc_core.Cfm.analyze}. *)

val certify : t -> Ast.stmt -> summary
(** [certify t s] is the summary of [s], reusing every subtree summary
    the memo or store already holds. *)

val certify_program : t -> Ast.program -> bool
(** [certify_program t p] is [(certify t p.body).cert]. *)

val digest : t -> Ast.stmt -> string
(** The structural digest of [s] under [t]'s certification context —
    the key {!certify} files [s]'s summary under. *)

val stats : t -> stats
(** Cumulative since [create] or the last {!reset_stats}. *)

val reset_stats : t -> unit
