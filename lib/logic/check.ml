(* Validation of flow-proof derivations against the rules of Figure 1. *)

module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast

type error = { span : Ifc_lang.Loc.span; rule : string; reason : string }

let pp_error ppf e = Fmt.pf ppf "%a: [%s] %s" Ifc_lang.Loc.pp e.span e.rule e.reason

type entailer = [ `Syntactic | `Complete ]

(* The substitution of the assignment-like axioms: the written symbol
   receives the written class joined with both certification variables. *)
let write_subst name rhs_of_name =
  fun sym ->
    match sym with
    | Cexpr.S_cls v when String.equal v name -> Some rhs_of_name
    | Cexpr.S_cls _ | Cexpr.S_local | Cexpr.S_global -> None

let entails entailer (l : 'a Lattice.t) hyps goals =
  match entailer with
  | `Syntactic -> Entail.check l hyps goals
  | `Complete -> (
    match Entail.decide l hyps goals with
    | Ok b -> b
    | Error _ ->
      (* Too many valuations: fall back to the sound checker. *)
      Entail.check l hyps goals)

let check ?(entailer = `Syntactic) ?(interference = `Check) (l : 'a Lattice.t) proof =
  let errors = ref [] in
  let err span rule reason = errors := { span; rule; reason } :: !errors in
  let entail = entails entailer l in
  let expect_equal span rule what p q =
    if not (Assertion.equal l p q) then
      err span rule
        (Fmt.str "%s:@ %a@ is not@ %a" what (Assertion.pp l) p (Assertion.pp l) q)
  in
  let expect_entails span rule what hyps goals =
    if not (entail hyps goals) then
      err span rule
        (Fmt.str "%s:@ %a |- %a fails" what (Assertion.pp l) hyps (Assertion.pp l) goals)
  in
  let triple span rule assertion =
    match Assertion.triple_of l assertion with
    | Some t -> Some t
    | None ->
      err span rule
        (Fmt.str "assertion not in {V,L,G} form: %a" (Assertion.pp l) assertion);
      None
  in
  (* Interference freedom for the concurrency rule: every assertion of
     proof [i] must be preserved by every write action of a sibling proof.
     The acting process's own certification variables are approximated by
     the bounds in the action's precondition — the paper's "indirect flows
     in one process do not affect indirect flows in another". *)
  let actions p =
    List.concat_map
      (fun (n : 'a Proof.t) ->
        match (n.rule, n.stmt.Ast.node) with
        | Proof.Axiom_assign, Ast.Assign (x, e) ->
          [ (n, x, Cexpr.of_expr l e) ]
        | Proof.Axiom_assign, Ast.Declassify (x, _, cls) ->
          let named =
            match l.Lattice.of_string cls with Ok c -> c | Error _ -> l.Lattice.top
          in
          [ (n, x, Cexpr.Const named) ]
        | Proof.Axiom_assign, Ast.Store (a, i, e) ->
          [ (n, a, Cexpr.Join (Cexpr.Cls a, Cexpr.Join (Cexpr.of_expr l i, Cexpr.of_expr l e))) ]
        | Proof.Axiom_wait, Ast.Wait sem | Proof.Axiom_signal, Ast.Signal sem ->
          [ (n, sem, Cexpr.Cls sem) ]
        | Proof.Axiom_send, Ast.Send (chan, e) ->
          (* A send writes the channel: old contents persist (weak
             update) and the payload joins in. *)
          [ (n, chan, Cexpr.Join (Cexpr.Cls chan, Cexpr.of_expr l e)) ]
        | Proof.Axiom_recv, Ast.Recv (chan, x) ->
          (* A recv writes both the target (the delivered message, whose
             class the channel bounds) and the channel. *)
          [ (n, x, Cexpr.Cls chan); (n, chan, Cexpr.Cls chan) ]
        | _ -> [])
      (Proof.nodes p)
  in
  (* Each distinct assertion of [pi] is decided once per action (the
     obligation depends on nothing else), and a failure is reported at
     every occurrence, in order. *)
  let interference_free span proofs =
    List.iteri
      (fun i pi ->
        let occurrences = Proof.assertions pi in
        let reps, slots = Assertion.distinct occurrences in
        List.iteri
          (fun j pj ->
            if i <> j then
              List.iter
                (fun (action, name, written_class) ->
                  let bounds =
                    match Assertion.triple_of l action.Proof.pre with
                    | Some { Assertion.l = lb; g = gb; _ } -> Cexpr.Join (lb, gb)
                    | None -> Cexpr.Join (Cexpr.Local, Cexpr.Global)
                  in
                  let sigma = write_subst name (Cexpr.Join (written_class, bounds)) in
                  let preserved =
                    Array.map
                      (fun r -> entail (r @ action.Proof.pre) (Assertion.subst sigma r))
                      reps
                  in
                  List.iteri
                    (fun k r ->
                      if not preserved.(slots.(k)) then
                        err span "concurrency"
                          (Fmt.str
                             "interference: %a not preserved by %s under %a"
                             (Assertion.pp l) r
                             (Ifc_lang.Pretty.stmt_to_string action.Proof.stmt)
                             (Assertion.pp l) action.Proof.pre))
                    occurrences)
                (actions pj))
          proofs)
      proofs
  in
  let rec go (p : 'a Proof.t) =
    let span = p.stmt.Ast.span in
    match (p.rule, p.stmt.Ast.node) with
    | Proof.Axiom_skip, Ast.Skip ->
      expect_equal span "skip" "pre must equal post" p.pre p.post
    | Proof.Axiom_assign, Ast.Assign (x, e) ->
      let rhs = Cexpr.Join (Cexpr.of_expr l e, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
      expect_equal span "assign" "pre must be post[x <- e(+)local(+)global]" p.pre
        (Assertion.subst (write_subst x rhs) p.post)
    | Proof.Axiom_assign, Ast.Declassify (x, _, cls) ->
      (* Declassification axiom: the named class replaces the expression's
         class in the substitution. *)
      let named =
        match l.Lattice.of_string cls with Ok c -> c | Error _ -> l.Lattice.top
      in
      let rhs = Cexpr.Join (Cexpr.Const named, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
      expect_equal span "declassify" "pre must be post[x <- C(+)local(+)global]" p.pre
        (Assertion.subst (write_subst x rhs) p.post)
    | Proof.Axiom_assign, Ast.Store (a, i, e) ->
      (* Array write: a weak update — the array's class persists in the
         substitution alongside the index and value classes. *)
      let rhs =
        Cexpr.Join
          ( Cexpr.Cls a,
            Cexpr.Join
              ( Cexpr.Join (Cexpr.of_expr l i, Cexpr.of_expr l e),
                Cexpr.Join (Cexpr.Local, Cexpr.Global) ) )
      in
      expect_equal span "store" "pre must be post[a <- a(+)i(+)e(+)local(+)global]"
        p.pre
        (Assertion.subst (write_subst a rhs) p.post)
    | Proof.Axiom_signal, Ast.Signal sem ->
      let rhs = Cexpr.Join (Cexpr.Cls sem, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
      expect_equal span "signal" "pre must be post[sem <- sem(+)local(+)global]" p.pre
        (Assertion.subst (write_subst sem rhs) p.post)
    | Proof.Axiom_wait, Ast.Wait sem ->
      let rhs = Cexpr.Join (Cexpr.Cls sem, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
      let sigma sym =
        match sym with
        | Cexpr.S_cls v when String.equal v sem -> Some rhs
        | Cexpr.S_global -> Some rhs
        | Cexpr.S_cls _ | Cexpr.S_local -> None
      in
      expect_equal span "wait"
        "pre must be post[sem <- sem(+)local(+)global, global <- sem(+)local(+)global]"
        p.pre
        (Assertion.subst sigma p.post)
    | Proof.Axiom_send, Ast.Send (chan, e) ->
      (* Signal-shaped: only the channel's symbol is substituted — a send
         never blocks the sender conditionally on data, so [global] is
         untouched. The payload joins the channel's class (weak update,
         like a store: earlier messages persist). *)
      let rhs =
        Cexpr.Join
          ( Cexpr.Cls chan,
            Cexpr.Join (Cexpr.of_expr l e, Cexpr.Join (Cexpr.Local, Cexpr.Global)) )
      in
      expect_equal span "send" "pre must be post[c <- c(+)e(+)local(+)global]" p.pre
        (Assertion.subst (write_subst chan rhs) p.post)
    | Proof.Axiom_recv, Ast.Recv (chan, x) ->
      (* Wait-shaped plus a write: the conditional delay raises [global]
         by the channel's class, and the delivered message (bounded by
         the channel's class) lands in [x] and refreshes [c]. *)
      let rhs = Cexpr.Join (Cexpr.Cls chan, Cexpr.Join (Cexpr.Local, Cexpr.Global)) in
      let sigma sym =
        match sym with
        | Cexpr.S_cls v when String.equal v chan || String.equal v x -> Some rhs
        | Cexpr.S_global -> Some rhs
        | Cexpr.S_cls _ | Cexpr.S_local -> None
      in
      expect_equal span "recv"
        "pre must be post[x <- c(+)local(+)global, c <- c(+)local(+)global, \
         global <- c(+)local(+)global]"
        p.pre
        (Assertion.subst sigma p.post)
    | Proof.Consequence inner, _ ->
      if not (Ast.equal_stmt inner.Proof.stmt p.stmt) then
        err span "consequence" "inner statement differs";
      expect_entails span "consequence" "pre |- inner pre" p.pre inner.Proof.pre;
      expect_entails span "consequence" "inner post |- post" inner.Proof.post p.post;
      go inner
    | Proof.Composition proofs, Ast.Seq stmts ->
      if List.length proofs <> List.length stmts then
        err span "composition" "arity mismatch with begin..end"
      else begin
        List.iter2
          (fun (pr : 'a Proof.t) st ->
            if not (Ast.equal_stmt pr.Proof.stmt st) then
              err span "composition" "component statement mismatch")
          proofs stmts;
        match proofs with
        | [] -> err span "composition" "empty composition"
        | first :: _ ->
          expect_equal span "composition" "pre = first component's pre" p.pre
            first.Proof.pre;
          let last = List.nth proofs (List.length proofs - 1) in
          expect_equal span "composition" "post = last component's post" p.post
            last.Proof.post;
          let rec chain = function
            | a :: (b :: _ as rest) ->
              expect_equal span "composition" "adjacent post/pre must agree"
                a.Proof.post b.Proof.pre;
              chain rest
            | [ _ ] | [] -> ()
          in
          chain proofs
      end;
      List.iter go proofs
    | Proof.Alternation (p1, p2), Ast.If (cond, s1, s2) ->
      if not (Ast.equal_stmt p1.Proof.stmt s1 && Ast.equal_stmt p2.Proof.stmt s2) then
        err span "alternation" "branch statements mismatch";
      (match
         ( triple span "alternation" p.pre,
           triple span "alternation" p.post,
           triple span "alternation" p1.Proof.pre,
           triple span "alternation" p1.Proof.post )
       with
      | Some pre_t, Some post_t, Some b_pre, Some b_post ->
        (* Premises must agree with each other exactly. *)
        expect_equal span "alternation" "branch pres must agree" p1.Proof.pre
          p2.Proof.pre;
        expect_equal span "alternation" "branch posts must agree" p1.Proof.post
          p2.Proof.post;
        (* {V,L',G} Si {V',L',G'} vs conclusion {V,L,G} .. {V',L,G'}. *)
        expect_equal span "alternation" "V preserved into branches" pre_t.Assertion.v
          b_pre.Assertion.v;
        expect_equal span "alternation" "V' propagated from branches"
          post_t.Assertion.v b_post.Assertion.v;
        if not (Cexpr.equal l pre_t.Assertion.g b_pre.Assertion.g) then
          err span "alternation" "branch pre G must equal conclusion pre G";
        if not (Cexpr.equal l post_t.Assertion.g b_post.Assertion.g) then
          err span "alternation" "branch post G' must equal conclusion post G'";
        if not (Cexpr.equal l b_pre.Assertion.l b_post.Assertion.l) then
          err span "alternation" "branch L' must be invariant across the branch";
        if not (Cexpr.equal l pre_t.Assertion.l post_t.Assertion.l) then
          err span "alternation" "conclusion L must be preserved";
        (* Side condition: V,L,G |- L'[local <- local (+) e]. *)
        let goal =
          [ Assertion.atom
              (Cexpr.Join (Cexpr.Local, Cexpr.of_expr l cond))
              b_pre.Assertion.l ]
        in
        expect_entails span "alternation" "side condition local(+)e <= L'" p.pre goal
      | _ -> ());
      go p1;
      go p2
    | Proof.Iteration body, Ast.While (cond, body_stmt) ->
      if not (Ast.equal_stmt body.Proof.stmt body_stmt) then
        err span "iteration" "body statement mismatch";
      (match
         ( triple span "iteration" p.pre,
           triple span "iteration" p.post,
           triple span "iteration" body.Proof.pre )
       with
      | Some pre_t, Some post_t, Some b_pre ->
        (* Premise is an invariant: {V,L',G} S {V,L',G}. *)
        expect_equal span "iteration" "body invariant (pre = post)" body.Proof.pre
          body.Proof.post;
        expect_equal span "iteration" "V preserved into body" pre_t.Assertion.v
          b_pre.Assertion.v;
        expect_equal span "iteration" "conclusion preserves V"
          pre_t.Assertion.v post_t.Assertion.v;
        if not (Cexpr.equal l pre_t.Assertion.g b_pre.Assertion.g) then
          err span "iteration" "body G must equal conclusion pre G";
        if not (Cexpr.equal l pre_t.Assertion.l post_t.Assertion.l) then
          err span "iteration" "conclusion L must be preserved";
        let e_class = Cexpr.of_expr l cond in
        expect_entails span "iteration" "side condition local(+)e <= L'" p.pre
          [ Assertion.atom (Cexpr.Join (Cexpr.Local, e_class)) b_pre.Assertion.l ];
        expect_entails span "iteration" "side condition global(+)local(+)e <= G'" p.pre
          [ Assertion.atom
              (Cexpr.Join (Cexpr.Global, Cexpr.Join (Cexpr.Local, e_class)))
              post_t.Assertion.g ]
      | _ -> ());
      go body
    | Proof.Concurrency proofs, Ast.Cobegin branches ->
      if List.length proofs <> List.length branches then
        err span "concurrency" "arity mismatch with cobegin..coend"
      else
        List.iter2
          (fun (pr : 'a Proof.t) st ->
            if not (Ast.equal_stmt pr.Proof.stmt st) then
              err span "concurrency" "branch statement mismatch")
          proofs branches;
      (match (triple span "concurrency" p.pre, triple span "concurrency" p.post) with
      | Some pre_t, Some post_t ->
        let branch_triples =
          List.filter_map
            (fun (pr : 'a Proof.t) ->
              match
                ( Assertion.triple_of l pr.Proof.pre,
                  Assertion.triple_of l pr.Proof.post )
              with
              | Some a, Some b -> Some (a, b)
              | _ ->
                err span "concurrency" "branch assertion not in {V,L,G} form";
                None)
            proofs
        in
        if List.length branch_triples = List.length proofs then begin
          List.iter
            (fun ((bp : 'a Assertion.triple), (bq : 'a Assertion.triple)) ->
              if not (Cexpr.equal l bp.Assertion.l pre_t.Assertion.l) then
                err span "concurrency" "branch pre L differs from conclusion L";
              if not (Cexpr.equal l bq.Assertion.l pre_t.Assertion.l) then
                err span "concurrency" "branch post L differs from conclusion L";
              if not (Cexpr.equal l bp.Assertion.g pre_t.Assertion.g) then
                err span "concurrency" "branch pre G differs from conclusion G";
              if not (Cexpr.equal l bq.Assertion.g post_t.Assertion.g) then
                err span "concurrency" "branch post G' differs from conclusion G'")
            branch_triples;
          (* Conclusion V is the conjunction of the branch Vs. *)
          expect_equal span "concurrency" "pre V = conjunction of branch Vs"
            pre_t.Assertion.v
            (List.concat_map (fun (bp, _) -> bp.Assertion.v) branch_triples);
          expect_equal span "concurrency" "post V = conjunction of branch V's"
            post_t.Assertion.v
            (List.concat_map (fun (_, bq) -> bq.Assertion.v) branch_triples);
          if not (Cexpr.equal l pre_t.Assertion.l post_t.Assertion.l) then
            err span "concurrency" "conclusion L must be preserved"
        end
      | _ -> ());
      if interference = `Check then interference_free span proofs;
      List.iter go proofs
    | ( ( Proof.Axiom_assign | Proof.Axiom_wait | Proof.Axiom_signal
        | Proof.Axiom_send | Proof.Axiom_recv | Proof.Axiom_skip
        | Proof.Alternation _ | Proof.Iteration _ | Proof.Composition _
        | Proof.Concurrency _ ),
        _ ) ->
      err span "structure" "rule does not match the statement form"
  in
  go proof;
  match List.rev !errors with [] -> Ok () | es -> Error es

let valid ?entailer l p = Result.is_ok (check ?entailer ~interference:`Check l p)
