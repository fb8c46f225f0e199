(** Linking certified modules from their summaries alone.

    [certify] never re-walks a module body: each module resolves to a
    summary ({!Summary.resolve}: from the store when one is supplied and
    holds it, computed otherwise), and the link step
    evaluates — in time proportional to interface size —

    - every summary's residual constraints under the linked binding,
    - the top-level sequential-composition checks from the summaries'
      symbolic [mod]/[flow] (the main program, which is the link step's
      own body, is walked directly),
    - interface conformance: export classes within their [provides]
      bounds, import classes at or above their [requires] bounds.

    The flow verdict ([cert_ok]) coincides exactly with whole-program
    CFM on the {!elaborate}d unit — the decomposition into atoms loses
    nothing — which the round-trip tests and CI byte-compare. [emit]
    packages the result as an [ifc-cert 2] certificate
    ({!Ifc_cert.Linked}) with per-module component certificates,
    self-checked before being returned. *)

module Lattice := Ifc_lattice.Lattice
module Linked := Ifc_cert.Linked
module Store := Ifc_store.Store

type outcome = {
  ok : bool;  (** [cert_ok && iface_ok]. *)
  cert_ok : bool;
      (** The flow verdict: equals whole-program CFM on the elaboration. *)
  iface_ok : bool;
      (** Export classes within bounds and import classes at or above
          their required lower bounds. *)
  issues : string list;  (** Human-readable notes for every failure. *)
  summaries : Linked.summary list;  (** One per module, in unit order. *)
  computed : int;  (** Summaries computed this call. *)
  reused : int;  (** Summaries served from the store. *)
  binding : string Ifc_core.Binding.t;  (** The linked binding ({!binding}). *)
}

val elaborate : Ifc_lang.Ast.linked -> Ifc_lang.Ast.program
(** The whole-program reference: all declarations merged (modules first,
    then main), bodies composed sequentially with main last. *)

val binding :
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.linked ->
  (string Ifc_core.Binding.t, string) result
(** The linked binding: {!Ifc_core.Binding.of_program} over the
    elaboration. *)

val certify :
  ?store:Store.t ->
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.linked ->
  (outcome, string) result
(** Certify a linked unit from summaries. [Error] reports structural
    problems (unresolvable class names); analysis failures land in the
    outcome. *)

val emit :
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.linked ->
  outcome ->
  (string * (string * string) list, string) result
(** [emit ~lattice l o] serializes [o] — {!certify}'s outcome for [l]
    under the same [lattice] and [default] — as an [ifc-cert 2]
    certificate, returning its text plus [(module name, component
    certificate text)] for every module whose import-closed body CFM
    certifies. Their one check is the self-check before it returns: the
    linked certificate is parsed back and {!Ifc_cert.Linked.check} runs
    the independent checker on the main proof and on every component. An
    outcome that does not certify is an [Error]. *)

val job_analysis :
  ?store:Store.t ->
  lattice:string Lattice.t ->
  ?default:string ->
  Ifc_lang.Ast.linked ->
  Ifc_pipeline.Job.analysis
(** A [Job.Link] analysis for the unit: run it in a spec whose program is
    {!elaborate}[ l] and whose binding is {!binding}[ l], and the verdict
    — with the emitted certificate as artifact — lands in the pipeline's
    digest-keyed cache. One module edited means one summary recomputed
    plus the link step; nothing else. *)
