(* The Concurrent Flow Mechanism (Figure 2), written once. [combine] is
   the table: one construct's mod, flow and cert from its children's,
   over a class algebra. [fold] is the single post-order pass that
   computes it. CFM proper is the concrete algebra; module summaries
   bring their own. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast

type 'a check = {
  span : Ifc_lang.Loc.span;
  rule : rule;
  lhs : 'a Extended.elt;
  rhs : 'a;
  ok : bool;
}

and rule =
  | Assign_direct
  | Declassify_direct
  | Store_direct
  | Send_direct
  | Recv_direct
  | If_local
  | While_global
  | Seq_global of int

type ('c, 'm) algebra = {
  bottom : 'c;
  top : 'm;
  src : string -> 'c;
  dst : string -> 'm;
  named : string -> 'c;
  join : 'c -> 'c -> 'c;
  meet : 'm -> 'm -> 'm;
  check : Ifc_lang.Loc.span -> rule -> 'c Extended.elt -> 'm -> bool;
}

type ('c, 'm) summary = { mod_ : 'm; flow : 'c Extended.elt; cert : bool }

type 'a result = {
  certified : bool;
  mod_ : 'a;
  flow : 'a Extended.elt;
  checks : 'a check list;
}

let rule_name = function
  | Assign_direct -> "assign: sbind(e) <= sbind(x)"
  | Declassify_direct -> "declassify: C <= sbind(x)"
  | Store_direct -> "store: sbind(i) (+) sbind(e) <= sbind(a)"
  | Send_direct -> "send: sbind(e) <= sbind(c)"
  | Recv_direct -> "recv: sbind(c) <= sbind(x)"
  | If_local -> "if: sbind(e) <= mod(S)"
  | While_global -> "while: flow(S) <= mod(S1)"
  | Seq_global i -> Printf.sprintf "begin: flow(S1..S%d) <= mod(S%d)" i (i + 1)

(* sbind(e): constants are the bottom class, and [e1 op e2] joins its
   operands' classes (Definitions 2 and 3). *)
let rec expr_class alg = function
  | Ast.Int _ | Ast.Bool _ -> alg.bottom
  | Ast.Var x -> alg.src x
  | Ast.Index (a, i) -> alg.join (alg.src a) (expr_class alg i)
  | Ast.Unop (_, e) -> expr_class alg e
  | Ast.Binop (_, e1, e2) -> alg.join (expr_class alg e1) (expr_class alg e2)

(* A construct whose only check is a direct flow [source <= target]:
   mod is the target and there is no global flow. *)
let direct alg (s : Ast.stmt) rule source target =
  let ok = alg.check s.span rule (Extended.El source) target in
  { mod_ = target; flow = Extended.Nil; cert = ok }

(* Parallel composition needs no extra check: branches execute
   independently (§4.2). mod is the meet and flow the join of the
   branches'. *)
let rec cobegin alg mod_ flow cert = function
  | [] -> { mod_; flow; cert }
  | (k : (_, _) summary) :: ks ->
    let flow = Extended.join alg.join flow k.flow in
    cobegin alg (alg.meet mod_ k.mod_) flow (cert && k.cert) ks

(* Sequential composition: mod, flow and cert as for cobegin, plus, for
   each component Si, the check flow(Sj) <= mod(Si) for all j < i. That
   is equivalent to checking the running prefix join (+)_{j<i} flow(Sj)
   against mod(Si), which keeps the whole pass linear: the paper's §6
   complexity claim. Under ~self_check (the literal j <= i reading) the
   component's own flow joins the prefix before its check. The block's
   flow is the final prefix. One pass over the components computes it
   all. *)
let rec seq alg ~self_check i mod_ prefix cert (stmts : Ast.stmt list) kids =
  match (stmts, kids) with
  | [], [] -> { mod_; flow = prefix; cert }
  | s :: ss, (k : (_, _) summary) :: ks ->
    let next = Extended.join alg.join prefix k.flow in
    let ok =
      if self_check then alg.check s.span (Seq_global i) next k.mod_
      else i = 0 || alg.check s.span (Seq_global i) prefix k.mod_
    in
    seq alg ~self_check (i + 1) (alg.meet mod_ k.mod_) next (cert && k.cert && ok) ss ks
  | _ -> invalid_arg "Cfm.combine: one summary per component"

let combine (alg : ('c, 'm) algebra) ~self_check (s : Ast.stmt)
    (kids : ('c, 'm) summary list) : ('c, 'm) summary =
  match (s.node, kids) with
  | Ast.Skip, [] -> { mod_ = alg.top; flow = Extended.Nil; cert = true }
  | Ast.Assign (x, e), [] -> direct alg s Assign_direct (expr_class alg e) (alg.dst x)
  | Ast.Declassify (x, _, cls), [] ->
    (* The named class replaces the expression's class: the escape hatch
       for data. The target must still clear the named class, and
       contexts are enforced by the surrounding if/while/seq checks. *)
    direct alg s Declassify_direct (alg.named cls) (alg.dst x)
  | Ast.Store (a, i, e), [] ->
    (* Denning's array rule: the index is part of the stored
       information — which slot changed reveals it. *)
    direct alg s Store_direct (alg.join (expr_class alg i) (expr_class alg e)) (alg.dst a)
  | Ast.Wait sem, [] ->
    (* mod = flow = sbind(sem); cert = true. The conditional delay of a
       wait is a global flow of the semaphore's class. *)
    { mod_ = alg.dst sem; flow = Extended.El (alg.src sem); cert = true }
  | Ast.Signal sem, [] -> { mod_ = alg.dst sem; flow = Extended.Nil; cert = true }
  | Ast.Send (chan, e), [] ->
    (* A send is an assignment into the channel that also signals: the
       payload's class must flow to the channel's class, and — like a
       signal — it produces no global flow of its own. mod = sbind(c)
       means the enclosing if/while/seq checks force every potential
       sender's context flow below the channel's class, so sbind(c)
       dominates the global flow of every potential sender (the join the
       recv rule needs is paid for here). *)
    direct alg s Send_direct (expr_class alg e) (alg.dst chan)
  | Ast.Recv (chan, x), [] ->
    (* A recv is a wait whose class is the channel's — the conditional
       delay is a global flow of sbind(c) — followed by an assignment of
       the delivered message (class sbind(c), which bounds every
       sender's payload and context) into x. *)
    let c = alg.src chan in
    let target = alg.dst x in
    let ok = alg.check s.span Recv_direct (Extended.El c) target in
    { mod_ = alg.meet (alg.dst chan) target; flow = Extended.El c; cert = ok }
  | Ast.If (cond, _, _), [ s1; s2 ] ->
    let e = expr_class alg cond in
    let mod_ = alg.meet s1.mod_ s2.mod_ in
    (* flow(S) = nil when both branches are flow-free; otherwise the
       branch flows joined with sbind(e) — escaping global flows reveal
       the condition. *)
    let flow =
      match Extended.join alg.join s1.flow s2.flow with
      | Extended.Nil -> Extended.Nil
      | Extended.El f -> Extended.El (alg.join f e)
    in
    let ok = alg.check s.span If_local (Extended.El e) mod_ in
    { mod_; flow; cert = s1.cert && s2.cert && ok }
  | Ast.While (cond, _), [ s1 ] ->
    (* flow(S) = flow(S1) ⊕ sbind(e): a loop always produces a global
       flow — its termination is conditional on [e]. *)
    let flow =
      Extended.El
        (alg.join (Extended.get ~default:alg.bottom s1.flow) (expr_class alg cond))
    in
    let ok = alg.check s.span While_global flow s1.mod_ in
    { mod_ = s1.mod_; flow; cert = s1.cert && ok }
  | Ast.Seq stmts, _ -> seq alg ~self_check 0 alg.top Extended.Nil true stmts kids
  | Ast.Cobegin _, _ -> cobegin alg alg.top Extended.Nil true kids
  | _ -> invalid_arg "Cfm.combine: child count does not match the construct"

let fold alg ~self_check stmt =
  let rec go s = combine alg ~self_check s (List.map go (Ast.children s)) in
  go stmt

let check_outcome l lhs rhs =
  match lhs with Extended.Nil -> true | Extended.El f -> l.Lattice.leq f rhs

(* The concrete algebra: classes are the binding's, and a check is
   decided on the spot. An unresolvable declassify class conservatively
   fails as top. *)
let algebra binding =
  let l = Binding.lattice binding in
  {
    bottom = l.Lattice.bottom;
    top = l.Lattice.top;
    src = Binding.sbind binding;
    dst = Binding.sbind binding;
    named =
      (fun cls ->
        match l.Lattice.of_string cls with Ok c -> c | Error _ -> l.Lattice.top);
    join = l.Lattice.join;
    meet = l.Lattice.meet;
    check = (fun _ _ lhs rhs -> check_outcome l lhs rhs);
  }

let analyze ?(self_check = false) binding stmt =
  let l = Binding.lattice binding in
  let checks = ref [] in
  let check span rule lhs rhs =
    let ok = check_outcome l lhs rhs in
    checks := { span; rule; lhs; rhs; ok } :: !checks;
    ok
  in
  let s = fold { (algebra binding) with check } ~self_check stmt in
  { certified = s.cert; mod_ = s.mod_; flow = s.flow; checks = List.rev !checks }

let certified ?(self_check = false) binding stmt =
  (fold (algebra binding) ~self_check stmt).cert

let mod_of binding stmt = (fold (algebra binding) ~self_check:false stmt).mod_

let flow_of binding stmt = (fold (algebra binding) ~self_check:false stmt).flow

let failed_checks r = List.filter (fun c -> not c.ok) r.checks

let analyze_program ?self_check binding (p : Ast.program) =
  analyze ?self_check binding p.body
