(** Deciding the existence of completely invariant flow proofs
    (Definition 7, Theorems 1 and 2).

    The paper proves: a completely invariant proof of the policy assertion
    exists for [S] iff [cert(S)]. This module is the flow-logic side: build
    the Theorem-1 candidate derivation and validate it with
    {!Ifc_logic.Check}. Because generation never consults [cert], the
    equivalence

    {v decide b s  =  Cfm.certified b s v}

    is a non-trivial cross-validation of the mechanism against the logic —
    the reproduction of Theorems 1 and 2 — exercised on random programs by
    the test suite. {!Emit} makes certificates and comes here only when
    CFM rejects. *)

val decide : 'a Ifc_core.Binding.t -> Ifc_lang.Ast.stmt -> bool
(** [decide b s] is true iff the Theorem-1 derivation at
    [l = g = bottom] (the weakest premise, always satisfying
    [l (+) g <= mod(S)]) passes {!Ifc_logic.Check.check}. *)

val decide_at :
  l:'a -> g:'a -> 'a Ifc_core.Binding.t -> Ifc_lang.Ast.stmt -> bool
(** [decide_at ~l ~g b s] is the same at a particular premise [(l, g)];
    Theorem 1 promises success for every [l (+) g <= mod(S)] when [S] is
    certified. *)

val witness :
  'a Ifc_core.Binding.t ->
  Ifc_lang.Ast.stmt ->
  ('a Ifc_logic.Proof.t, Ifc_logic.Check.error list) result
(** [witness b s] returns the checked completely invariant proof, or the
    checker's complaints — which point at exactly the constructs whose CFM
    checks fail. *)
