(** The module-refinement fuzzing leg: generate a linked unit and a
    candidate replacement for one of its modules, let the compositional
    toolchain claim the swap safe, and set the executor on the claim.

    A case is a {e module pair}: a two-module linked unit (source and
    sink over a shared export, plus a main program that also declares a
    link-wide [secret]) and a replacement for the source module obtained
    by mutating its interface or body. [evaluate] computes

    - the {e claim}: {!Ifc_modsys.Link.certify} accepts the base unit and
      {!Ifc_modsys.Refine.check_against} accepts the replacement — by
      refinement soundness, the swapped unit must then stay
      noninterferent;
    - the {e refutation}: the semantic oracle run on the elaboration of
      the swapped unit witnesses distinguishable low observables.

    A case with both is the [refine-unsound] inversion
    ({!Classify.Refine_unsound}) — a bug in the summary comparison by
    construction, since the honest checker is sound. [planted] fabricates
    one for the campaign's [refine-unsound] plant ([IFC_PLANT]): the
    replacement pipes [secret] into the low export, the honest rejection
    is overridden, and the executor refutes the forced claim. *)

module Lattice := Ifc_lattice.Lattice

type case = {
  unit_ : Ifc_lang.Ast.linked;  (** The base unit, link-certifiable or not. *)
  replacement : Ifc_lang.Ast.module_unit;
      (** Candidate stand-in for the unit's module of the same name. *)
}

val generate : string Lattice.t -> Ifc_support.Prng.t -> case
(** A seeded random case: source/sink unit plus a mutated source. *)

val planted : string Lattice.t -> case
(** The fabricated refine-unsound case (see above); its honest claim is
    [false], so callers force it. *)

val swapped : case -> Ifc_lang.Ast.linked
(** The unit with the replacement standing in. *)

val elaborated : case -> Ifc_lang.Ast.program
(** Whole-program elaboration of {!swapped} — what the executor runs. *)

val case_binding : lattice:string Lattice.t -> case -> string Ifc_core.Binding.t
(** The swapped unit's linked binding (empty on structural failure). *)

val statements : case -> int
(** Statement count of {!elaborated} — the shrinking measure. *)

val to_text : case -> string
(** {!swapped} in concrete linked syntax (corpus persistence). *)

val evaluate :
  ?override_claim:bool ->
  lattice:string Lattice.t ->
  ni_seed:int ->
  ni_pairs:int ->
  max_states:int ->
  case ->
  bool * bool * int * int
(** [(claimed, leak, pairs_tested, pairs_skipped)]. The oracle only runs
    when the claim holds ([claimed = false] reports no leak and no
    pairs); [override_claim] substitutes a forced claim while the
    refutation stays honest — the planted-case hook. *)

val verdicts :
  claimed:bool -> leak:bool -> tested:int -> skipped:int -> Classify.verdicts
(** Pack a refinement evaluation as a verdict tuple: the refine fields
    carry the case, every program-matrix field is neutral, and
    [refine_checked] routes {!Classify.primary} to [refine-accepted] /
    [refine-rejected] / [refine-unsound]. *)

val shrink :
  budget:int -> keep:(case -> bool) -> case -> case * Shrink.stats
(** Minimize a failing case to a minimal module pair: each body —
    replacement, unit modules, main — is shrunk in turn through
    {!Shrink.minimize} with [keep] re-evaluated over the reassembled
    case (guarded by linked well-formedness), the budget split evenly. *)
