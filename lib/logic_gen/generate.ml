(* The Theorem 1 construction: from CFM facts to a completely invariant
   flow proof. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Assertion = Ifc_logic.Assertion
module Cexpr = Ifc_logic.Cexpr
module Proof = Ifc_logic.Proof

let invariant_of binding stmt =
  let vars = Ifc_support.Sset.elements (Ifc_lang.Vars.all_vars stmt) in
  Assertion.policy binding vars

let theorem1 ?l:l0 ?g:g0 binding stmt =
  let lat = Binding.lattice binding in
  let bot = lat.Lattice.bottom in
  let l0 = Option.value l0 ~default:bot in
  let g0 = Option.value g0 ~default:bot in
  let inv = invariant_of binding stmt in
  let state l g =
    Assertion.of_triple
      { Assertion.v = inv; l = Cexpr.Const l; g = Cexpr.Const g }
  in
  let flow_const s =
    Extended.get ~default:bot (Cfm.flow_of binding s)
  in
  (* Weaken a proof's post to {I, l, g'} (g' must be >= its post bound). *)
  let weaken_post ~l ~g' (p : 'a Proof.t) =
    if Assertion.equal lat p.Proof.post (state l g') then p
    else
      Proof.make ~pre:p.Proof.pre ~stmt:p.Proof.stmt ~post:(state l g')
        (Proof.Consequence p)
  in
  (* Strengthen a proof's pre from {I, l, g_small}. *)
  let strengthen_pre ~pre (p : 'a Proof.t) =
    if Assertion.equal lat p.Proof.pre pre then p
    else Proof.make ~pre ~stmt:p.Proof.stmt ~post:p.Proof.post (Proof.Consequence p)
  in
  let with_lg e = Cexpr.Join (e, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
  (* An assignment-like axiom {post[w <- rhs]} s {post} for every written
     symbol [w], strengthened to {I, l, g}. A delaying statement (wait,
     recv) also writes [global], and its post raises g by the class of
     the symbol it may block on. *)
  let axiom l g s ~writes ~rhs ?delay rule =
    let g_out =
      match delay with
      | None -> g
      | Some v -> lat.Lattice.join g (lat.Lattice.join l (Binding.sbind binding v))
    in
    let post = state l g_out in
    let sigma sym =
      match sym with
      | Cexpr.S_cls v when List.mem v writes -> Some rhs
      | Cexpr.S_global when Option.is_some delay -> Some rhs
      | Cexpr.S_cls _ | Cexpr.S_local | Cexpr.S_global -> None
    in
    let axiom = Proof.make ~pre:(Assertion.subst sigma post) ~stmt:s ~post rule in
    (strengthen_pre ~pre:(state l g) axiom, g_out)
  in
  (* Returns the derivation of {I,l,g} s {I,l,g_out} and g_out. *)
  let rec gen l g (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Skip ->
      (Proof.make ~pre:(state l g) ~stmt:s ~post:(state l g) Proof.Axiom_skip, g)
    | Ast.Assign (x, e) ->
      axiom l g s ~writes:[ x ] ~rhs:(with_lg (Cexpr.of_expr lat e)) Proof.Axiom_assign
    | Ast.Declassify (x, _, cls) ->
      let named = Result.value ~default:lat.Lattice.top (lat.Lattice.of_string cls) in
      axiom l g s ~writes:[ x ] ~rhs:(with_lg (Cexpr.Const named)) Proof.Axiom_assign
    | Ast.Store (a, i, e) ->
      (* Weak update: the array keeps its old class, joined with the
         index, the stored expression and the certification variables. *)
      let written = Cexpr.Join (Cexpr.of_expr lat i, Cexpr.of_expr lat e) in
      axiom l g s ~writes:[ a ]
        ~rhs:(Cexpr.Join (Cexpr.Cls a, with_lg written))
        Proof.Axiom_assign
    | Ast.Signal sem ->
      axiom l g s ~writes:[ sem ] ~rhs:(with_lg (Cexpr.Cls sem)) Proof.Axiom_signal
    | Ast.Send (chan, e) ->
      (* Signal-shaped: the channel absorbs the payload (weak update —
         earlier messages persist) but produces no global flow. *)
      axiom l g s ~writes:[ chan ]
        ~rhs:(Cexpr.Join (Cexpr.Cls chan, with_lg (Cexpr.of_expr lat e)))
        Proof.Axiom_send
    | Ast.Recv (chan, x) ->
      (* Wait-shaped plus a write: the conditional delay raises the
         global bound by the channel's class, and the delivered message
         lands in [x] (and refreshes the channel's symbol). *)
      axiom l g s ~writes:[ chan; x ] ~rhs:(with_lg (Cexpr.Cls chan)) ~delay:chan
        Proof.Axiom_recv
    | Ast.Wait sem ->
      axiom l g s ~writes:[ sem ] ~rhs:(with_lg (Cexpr.Cls sem)) ~delay:sem
        Proof.Axiom_wait
    | Ast.If (cond, s1, s2) ->
      let e_class = Binding.expr_class binding cond in
      let l' = lat.Lattice.join l e_class in
      let p1, g1 = gen l' g s1 in
      let p2, g2 = gen l' g s2 in
      let g' = lat.Lattice.join g1 g2 in
      let p1 = weaken_post ~l:l' ~g' p1 in
      let p2 = weaken_post ~l:l' ~g' p2 in
      ( Proof.make ~pre:(state l g) ~stmt:s ~post:(state l g')
          (Proof.Alternation (p1, p2)),
        g' )
    | Ast.While (cond, body) ->
      let e_class = Binding.expr_class binding cond in
      let l' = lat.Lattice.join l e_class in
      (* The invariant global bound absorbs everything the body can add:
         g (+) l (+) e (+) flow(body). *)
      let g_inv =
        lat.Lattice.join g (lat.Lattice.join l' (flow_const body))
      in
      let pb, _gb = gen l' g_inv body in
      let pb = weaken_post ~l:l' ~g':g_inv pb in
      let while_node =
        Proof.make ~pre:(state l g_inv) ~stmt:s ~post:(state l g_inv)
          (Proof.Iteration pb)
      in
      (strengthen_pre ~pre:(state l g) while_node, g_inv)
    | Ast.Seq stmts ->
      let proofs_rev, g_out =
        List.fold_left
          (fun (acc, g_cur) st ->
            let p, g_next = gen l g_cur st in
            (p :: acc, g_next))
          ([], g) stmts
      in
      ( Proof.make ~pre:(state l g) ~stmt:s ~post:(state l g_out)
          (Proof.Composition (List.rev proofs_rev)),
        g_out )
    | Ast.Cobegin branches ->
      let results = List.map (gen l g) branches in
      let g' = List.fold_left (fun acc (_, gi) -> lat.Lattice.join acc gi) g results in
      let proofs = List.map (fun (p, _) -> weaken_post ~l ~g' p) results in
      ( Proof.make ~pre:(state l g) ~stmt:s ~post:(state l g')
          (Proof.Concurrency proofs),
        g' )
  in
  let proof, _g_out = gen l0 g0 stmt in
  (* Present the root judgment exactly as Theorem 1 states it. *)
  let theorem_g =
    lat.Lattice.join g0 (lat.Lattice.join l0 (flow_const stmt))
  in
  weaken_post ~l:l0 ~g':theorem_g proof
