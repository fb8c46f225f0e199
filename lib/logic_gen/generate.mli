(** The constructive content of Theorem 1.

    Given a static binding and class constants [l] and [g], build the
    completely invariant flow proof of

    {v {I, local <= l, global <= g} S {I, local <= l, global <= g (+) l (+) flow(S)} v}

    following the appendix's induction: axioms wrapped in consequence
    steps, branch posts unified by weakening, loop invariants seeded with
    [g (+) l (+) e (+) flow(body)].

    The construction is *optimistic*: it never consults [cert(S)]. When
    [S] is not certified w.r.t. the binding, the construction still
    returns a derivation — but one whose consequence entailments are
    false, so {!Ifc_logic.Check.check} rejects it. The paper's Theorems 1
    and 2 together say exactly that [Check.check (theorem1 b s)] succeeds
    iff [Cfm.certified b s]; the property suite tests this equivalence on
    random programs, which validates both implementations against each
    other. {!Emit} renders a certified program's derivation without
    [Check.check]: the independent certificate checker is its one check. *)

val theorem1 :
  ?l:'a ->
  ?g:'a ->
  'a Ifc_core.Binding.t ->
  Ifc_lang.Ast.stmt ->
  'a Ifc_logic.Proof.t
(** [theorem1 b s] builds the derivation with [l] and [g] defaulting to
    the lattice bottom (for which the theorem's premise
    [l (+) g <= mod(S)] always holds). The root judgment is exactly the
    theorem's, with [flow(S)] taken from {!Ifc_core.Cfm.flow_of}. *)

val invariant_of :
  'a Ifc_core.Binding.t -> Ifc_lang.Ast.stmt -> 'a Ifc_logic.Assertion.t
(** [invariant_of b s] is the policy assertion [I] (Definition 6) over the
    variables of [s] — the [V]-part of every assertion in the generated
    proof. *)
