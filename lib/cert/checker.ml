(* Independent certificate validation: walk the certificate against the
   parsed program and re-check every Figure 1 rule instance locally.
   Mirrors the per-rule obligations of Ifc_logic.Check, but consumes the
   serialized assertions instead of an in-memory derivation and reports
   failures by preorder node path. Never constructs a proof. *)

module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Assertion = Ifc_logic.Assertion
module Cexpr = Ifc_logic.Cexpr
module Entail = Ifc_logic.Entail

type failure = { path : string; rule : string; reason : string }

let pp_failure ppf f = Fmt.pf ppf "at %s: [%s] %s" f.path f.rule f.reason

(* The substitution of the assignment-like axioms: the written symbol
   receives the written class joined with both certification variables. *)
let write_subst name rhs =
 fun sym ->
  match sym with
  | Cexpr.S_cls v when String.equal v name -> Some rhs
  | Cexpr.S_cls _ | Cexpr.S_local | Cexpr.S_global -> None

let check (c : Cert.t) (program : Ast.program) =
  let lat = c.Cert.lattice in
  let failures = ref [] in
  let fail path rule reason = failures := { path; rule; reason } :: !failures in
  let finish () =
    match List.rev !failures with [] -> Ok () | fs -> Error fs
  in
  (* The digest gates everything else: a certificate for a different
     program proves nothing about this one. *)
  let actual = Cert.program_digest program in
  if not (String.equal actual c.Cert.program_digest) then begin
    fail "program" "digest"
      (Printf.sprintf
         "certificate is stamped for program %s, but this program hashes to %s"
         c.Cert.program_digest actual);
    finish ()
  end
  else begin
    let entail = Entail.check lat in
    let expect_equal path rule what p q =
      if not (Assertion.equal lat p q) then
        fail path rule
          (Fmt.str "%s:@ %a@ is not@ %a" what (Assertion.pp lat) p
             (Assertion.pp lat) q)
    in
    let expect_entails path rule what hyps goals =
      if not (entail hyps goals) then
        fail path rule
          (Fmt.str "%s:@ %a |- %a fails" what (Assertion.pp lat) hyps
             (Assertion.pp lat) goals)
    in
    let triple path rule assertion =
      match Assertion.triple_of lat assertion with
      | Some t -> Some t
      | None ->
        fail path rule
          (Fmt.str "assertion not in {V,L,G} form: %a" (Assertion.pp lat)
             assertion);
        None
    in
    (* Binding coverage: the recorded binding must name exactly the
       variables of the program body — the domain of the policy
       invariant. *)
    let vars = Ifc_support.Sset.elements (Vars.all_vars program.Ast.body) in
    let bound = List.map fst c.Cert.binds in
    if not (List.equal String.equal vars bound) then
      fail "binding" "coverage"
        (Printf.sprintf
           "certificate binds [%s] but the program's variables are [%s]"
           (String.concat " " bound)
           (String.concat " " vars));
    let elem cls =
      match lat.Lattice.of_string cls with
      | Ok e -> e
      | Error _ -> lat.Lattice.top
    in
    let binding =
      Binding.make lat (List.map (fun (v, cls) -> (v, elem cls)) c.Cert.binds)
    in
    let child_path path i = path ^ "." ^ string_of_int i in
    (* Pair a node's sub-derivations with the statements they must cover;
       empty when the shapes do not align (reported by the main walk). *)
    let sub_pairs (n : Cert.node) (s : Ast.stmt) =
      match (n.Cert.kind, n.Cert.children, s.Ast.node) with
      | Cert.K_consequence, [ inner ], _ -> [ (inner, s) ]
      | Cert.K_alternation, [ a; b ], Ast.If (_, s1, s2) -> [ (a, s1); (b, s2) ]
      | Cert.K_iteration, [ b ], Ast.While (_, body) -> [ (b, body) ]
      | Cert.K_composition, ns, Ast.Seq ss
        when List.length ns = List.length ss ->
        List.combine ns ss
      | Cert.K_concurrency, ns, Ast.Cobegin bs
        when List.length ns = List.length bs ->
        List.combine ns bs
      | _ -> []
    in
    let rec collect_actions (n, (s : Ast.stmt)) acc =
      match (n.Cert.kind, s.Ast.node) with
      | Cert.K_assign, Ast.Assign (x, e) ->
        (n, x, Cexpr.of_expr lat e, s) :: acc
      | Cert.K_assign, Ast.Declassify (x, _, cls) ->
        (n, x, Cexpr.Const (elem cls), s) :: acc
      | Cert.K_assign, Ast.Store (a, i, e) ->
        ( n,
          a,
          Cexpr.Join
            (Cexpr.Cls a, Cexpr.Join (Cexpr.of_expr lat i, Cexpr.of_expr lat e)),
          s )
        :: acc
      | Cert.K_wait, Ast.Wait sem | Cert.K_signal, Ast.Signal sem ->
        (n, sem, Cexpr.Cls sem, s) :: acc
      | Cert.K_send, Ast.Send (chan, e) ->
        (* A send writes the channel: old contents persist and the
           payload joins in. *)
        (n, chan, Cexpr.Join (Cexpr.Cls chan, Cexpr.of_expr lat e), s) :: acc
      | Cert.K_recv, Ast.Recv (chan, x) ->
        (* A recv writes both the target and the channel, each bounded
           by the channel's class. *)
        (n, x, Cexpr.Cls chan, s) :: (n, chan, Cexpr.Cls chan, s) :: acc
      | _ ->
        List.fold_left
          (fun acc pair -> collect_actions pair acc)
          acc (sub_pairs n s)
    in
    let rec all_assertions (n : Cert.node) acc =
      n.Cert.pre :: n.Cert.post
      :: List.fold_left (fun a ch -> all_assertions ch a) acc n.Cert.children
    in
    (* Interference freedom for the concurrency rule: every assertion of
       branch [i] must be preserved by every write action of a sibling,
       with the acting process's certification variables approximated by
       the bounds in the action's precondition. A branch repeats a few
       assertions at most of its nodes, and the obligation for one action
       depends only on the assertion, so each distinct assertion is
       decided once per action; a failure is still reported at every
       occurrence, in walk order. *)
    let interference_free path pairs =
      List.iteri
        (fun i (pi, _) ->
          let occurrences = all_assertions pi [] in
          let reps, slots = Assertion.distinct occurrences in
          List.iteri
            (fun j pair_j ->
              if i <> j then
                List.iter
                  (fun (action, name, written_class, stmt) ->
                    let bounds =
                      match Assertion.triple_of lat action.Cert.pre with
                      | Some { Assertion.l = lb; g = gb; _ } ->
                        Cexpr.Join (lb, gb)
                      | None -> Cexpr.Join (Cexpr.Local, Cexpr.Global)
                    in
                    let sigma =
                      write_subst name (Cexpr.Join (written_class, bounds))
                    in
                    let preserved =
                      Array.map
                        (fun r ->
                          entail (r @ action.Cert.pre) (Assertion.subst sigma r))
                        reps
                    in
                    List.iteri
                      (fun k r ->
                        if not preserved.(slots.(k)) then
                          fail path "concurrency"
                            (Fmt.str
                               "interference: %a not preserved by %s under %a"
                               (Assertion.pp lat) r
                               (Pretty.stmt_to_string stmt) (Assertion.pp lat)
                               action.Cert.pre))
                      occurrences)
                  (collect_actions pair_j []))
            pairs)
        pairs
    in
    let rec go path (n : Cert.node) (s : Ast.stmt) =
      match (n.Cert.kind, n.Cert.children, s.Ast.node) with
      | Cert.K_skip, [], Ast.Skip ->
        expect_equal path "skip" "pre must equal post" n.Cert.pre n.Cert.post
      | Cert.K_assign, [], Ast.Assign (x, e) ->
        let rhs =
          Cexpr.Join (Cexpr.of_expr lat e, Cexpr.Join (Cexpr.Local, Cexpr.Global))
        in
        expect_equal path "assign" "pre must be post[x <- e(+)local(+)global]"
          n.Cert.pre
          (Assertion.subst (write_subst x rhs) n.Cert.post)
      | Cert.K_assign, [], Ast.Declassify (x, _, cls) ->
        let rhs =
          Cexpr.Join
            (Cexpr.Const (elem cls), Cexpr.Join (Cexpr.Local, Cexpr.Global))
        in
        expect_equal path "declassify"
          "pre must be post[x <- C(+)local(+)global]" n.Cert.pre
          (Assertion.subst (write_subst x rhs) n.Cert.post)
      | Cert.K_assign, [], Ast.Store (a, i, e) ->
        let rhs =
          Cexpr.Join
            ( Cexpr.Cls a,
              Cexpr.Join
                ( Cexpr.Join (Cexpr.of_expr lat i, Cexpr.of_expr lat e),
                  Cexpr.Join (Cexpr.Local, Cexpr.Global) ) )
        in
        expect_equal path "store"
          "pre must be post[a <- a(+)i(+)e(+)local(+)global]" n.Cert.pre
          (Assertion.subst (write_subst a rhs) n.Cert.post)
      | Cert.K_signal, [], Ast.Signal sem ->
        let rhs =
          Cexpr.Join (Cexpr.Cls sem, Cexpr.Join (Cexpr.Local, Cexpr.Global))
        in
        expect_equal path "signal"
          "pre must be post[sem <- sem(+)local(+)global]" n.Cert.pre
          (Assertion.subst (write_subst sem rhs) n.Cert.post)
      | Cert.K_wait, [], Ast.Wait sem ->
        let rhs =
          Cexpr.Join (Cexpr.Cls sem, Cexpr.Join (Cexpr.Local, Cexpr.Global))
        in
        let sigma sym =
          match sym with
          | Cexpr.S_cls v when String.equal v sem -> Some rhs
          | Cexpr.S_global -> Some rhs
          | Cexpr.S_cls _ | Cexpr.S_local -> None
        in
        expect_equal path "wait"
          "pre must be post[sem <- sem(+)local(+)global, global <- \
           sem(+)local(+)global]"
          n.Cert.pre
          (Assertion.subst sigma n.Cert.post)
      | Cert.K_send, [], Ast.Send (chan, e) ->
        let rhs =
          Cexpr.Join
            ( Cexpr.Cls chan,
              Cexpr.Join
                (Cexpr.of_expr lat e, Cexpr.Join (Cexpr.Local, Cexpr.Global)) )
        in
        expect_equal path "send"
          "pre must be post[c <- c(+)e(+)local(+)global]" n.Cert.pre
          (Assertion.subst (write_subst chan rhs) n.Cert.post)
      | Cert.K_recv, [], Ast.Recv (chan, x) ->
        let rhs =
          Cexpr.Join (Cexpr.Cls chan, Cexpr.Join (Cexpr.Local, Cexpr.Global))
        in
        let sigma sym =
          match sym with
          | Cexpr.S_cls v when String.equal v chan || String.equal v x ->
            Some rhs
          | Cexpr.S_global -> Some rhs
          | Cexpr.S_cls _ | Cexpr.S_local -> None
        in
        expect_equal path "recv"
          "pre must be post[x <- c(+)local(+)global, c <- \
           c(+)local(+)global, global <- c(+)local(+)global]"
          n.Cert.pre
          (Assertion.subst sigma n.Cert.post)
      | Cert.K_consequence, [ inner ], _ ->
        expect_entails path "consequence" "pre |- inner pre" n.Cert.pre
          inner.Cert.pre;
        expect_entails path "consequence" "inner post |- post" inner.Cert.post
          n.Cert.post;
        go (child_path path 0) inner s
      | Cert.K_composition, ns, Ast.Seq ss ->
        if List.length ns <> List.length ss then
          fail path "composition" "arity mismatch with begin..end"
        else begin
          (match ns with
          | [] -> fail path "composition" "empty composition"
          | first :: _ ->
            expect_equal path "composition" "pre = first component's pre"
              n.Cert.pre first.Cert.pre;
            let last = List.nth ns (List.length ns - 1) in
            expect_equal path "composition" "post = last component's post"
              n.Cert.post last.Cert.post;
            let rec chain = function
              | a :: (b :: _ as rest) ->
                expect_equal path "composition" "adjacent post/pre must agree"
                  a.Cert.post b.Cert.pre;
                chain rest
              | [ _ ] | [] -> ()
            in
            chain ns);
          List.iteri
            (fun i (child, st) -> go (child_path path i) child st)
            (List.combine ns ss)
        end
      | Cert.K_alternation, [ p1; p2 ], Ast.If (cond, _, _) ->
        (match
           ( triple path "alternation" n.Cert.pre,
             triple path "alternation" n.Cert.post,
             triple path "alternation" p1.Cert.pre,
             triple path "alternation" p1.Cert.post )
         with
        | Some pre_t, Some post_t, Some b_pre, Some b_post ->
          expect_equal path "alternation" "branch pres must agree" p1.Cert.pre
            p2.Cert.pre;
          expect_equal path "alternation" "branch posts must agree"
            p1.Cert.post p2.Cert.post;
          expect_equal path "alternation" "V preserved into branches"
            pre_t.Assertion.v b_pre.Assertion.v;
          expect_equal path "alternation" "V' propagated from branches"
            post_t.Assertion.v b_post.Assertion.v;
          if not (Cexpr.equal lat pre_t.Assertion.g b_pre.Assertion.g) then
            fail path "alternation" "branch pre G must equal conclusion pre G";
          if not (Cexpr.equal lat post_t.Assertion.g b_post.Assertion.g) then
            fail path "alternation"
              "branch post G' must equal conclusion post G'";
          if not (Cexpr.equal lat b_pre.Assertion.l b_post.Assertion.l) then
            fail path "alternation"
              "branch L' must be invariant across the branch";
          if not (Cexpr.equal lat pre_t.Assertion.l post_t.Assertion.l) then
            fail path "alternation" "conclusion L must be preserved";
          let goal =
            [ Assertion.atom
                (Cexpr.Join (Cexpr.Local, Cexpr.of_expr lat cond))
                b_pre.Assertion.l ]
          in
          expect_entails path "alternation" "side condition local(+)e <= L'"
            n.Cert.pre goal
        | _ -> ());
        List.iteri
          (fun i (child, st) -> go (child_path path i) child st)
          (sub_pairs n s)
      | Cert.K_iteration, [ body ], Ast.While (cond, _) ->
        (match
           ( triple path "iteration" n.Cert.pre,
             triple path "iteration" n.Cert.post,
             triple path "iteration" body.Cert.pre )
         with
        | Some pre_t, Some post_t, Some b_pre ->
          expect_equal path "iteration" "body invariant (pre = post)"
            body.Cert.pre body.Cert.post;
          expect_equal path "iteration" "V preserved into body"
            pre_t.Assertion.v b_pre.Assertion.v;
          expect_equal path "iteration" "conclusion preserves V"
            pre_t.Assertion.v post_t.Assertion.v;
          if not (Cexpr.equal lat pre_t.Assertion.g b_pre.Assertion.g) then
            fail path "iteration" "body G must equal conclusion pre G";
          if not (Cexpr.equal lat pre_t.Assertion.l post_t.Assertion.l) then
            fail path "iteration" "conclusion L must be preserved";
          let e_class = Cexpr.of_expr lat cond in
          expect_entails path "iteration" "side condition local(+)e <= L'"
            n.Cert.pre
            [ Assertion.atom
                (Cexpr.Join (Cexpr.Local, e_class))
                b_pre.Assertion.l ];
          expect_entails path "iteration"
            "side condition global(+)local(+)e <= G'" n.Cert.pre
            [ Assertion.atom
                (Cexpr.Join (Cexpr.Global, Cexpr.Join (Cexpr.Local, e_class)))
                post_t.Assertion.g ]
        | _ -> ());
        go (child_path path 0) body
          (match s.Ast.node with Ast.While (_, b) -> b | _ -> s)
      | Cert.K_concurrency, ns, Ast.Cobegin branches ->
        if List.length ns <> List.length branches then
          fail path "concurrency" "arity mismatch with cobegin..coend"
        else begin
          (match
             ( triple path "concurrency" n.Cert.pre,
               triple path "concurrency" n.Cert.post )
           with
          | Some pre_t, Some post_t ->
            let branch_triples =
              List.filter_map
                (fun (b : Cert.node) ->
                  match
                    ( Assertion.triple_of lat b.Cert.pre,
                      Assertion.triple_of lat b.Cert.post )
                  with
                  | Some a, Some b -> Some (a, b)
                  | _ ->
                    fail path "concurrency"
                      "branch assertion not in {V,L,G} form";
                    None)
                ns
            in
            if List.length branch_triples = List.length ns then begin
              List.iter
                (fun ((bp : string Assertion.triple), (bq : string Assertion.triple)) ->
                  if not (Cexpr.equal lat bp.Assertion.l pre_t.Assertion.l)
                  then
                    fail path "concurrency"
                      "branch pre L differs from conclusion L";
                  if not (Cexpr.equal lat bq.Assertion.l pre_t.Assertion.l)
                  then
                    fail path "concurrency"
                      "branch post L differs from conclusion L";
                  if not (Cexpr.equal lat bp.Assertion.g pre_t.Assertion.g)
                  then
                    fail path "concurrency"
                      "branch pre G differs from conclusion G";
                  if not (Cexpr.equal lat bq.Assertion.g post_t.Assertion.g)
                  then
                    fail path "concurrency"
                      "branch post G' differs from conclusion G'")
                branch_triples;
              expect_equal path "concurrency" "pre V = conjunction of branch Vs"
                pre_t.Assertion.v
                (List.concat_map (fun (bp, _) -> bp.Assertion.v) branch_triples);
              expect_equal path "concurrency"
                "post V = conjunction of branch V's" post_t.Assertion.v
                (List.concat_map (fun (_, bq) -> bq.Assertion.v) branch_triples);
              if not (Cexpr.equal lat pre_t.Assertion.l post_t.Assertion.l)
              then fail path "concurrency" "conclusion L must be preserved"
            end
          | _ -> ());
          interference_free path (List.combine ns branches);
          List.iteri
            (fun i (child, st) -> go (child_path path i) child st)
            (List.combine ns branches)
        end
      | ( ( Cert.K_assign | Cert.K_wait | Cert.K_signal | Cert.K_send
          | Cert.K_recv | Cert.K_skip | Cert.K_alternation | Cert.K_iteration
          | Cert.K_composition | Cert.K_concurrency | Cert.K_consequence ),
          _,
          _ ) ->
        fail path (Cert.rule_name n.Cert.kind)
          "rule does not match the statement form"
    in
    go "0" c.Cert.root program.Ast.body;
    (* Complete invariance (Definition 7): the precondition of every
       statement occurrence — the outermost judgment, so consequence
       inner nodes are not occurrences — and the root's postcondition
       carry the policy invariant as their V part. *)
    let invariant = Assertion.policy binding vars in
    (* Most occurrences share one of a few parsed assertions, so the
       answer is kept per assertion, by identity. *)
    let v_checked = ref [] in
    let v_ok a =
      match List.assq_opt a !v_checked with
      | Some ok -> ok
      | None ->
        let ok =
          match Assertion.triple_of lat a with
          | Some t -> Assertion.equal lat t.Assertion.v invariant
          | None -> false
        in
        v_checked := (a, ok) :: !v_checked;
        ok
    in
    let rec skip_conseq path (n : Cert.node) =
      match (n.Cert.kind, n.Cert.children) with
      | Cert.K_consequence, [ inner ] -> skip_conseq (child_path path 0) inner
      | _ -> (path, n)
    in
    let rec occurrence path (n : Cert.node) =
      if not (v_ok n.Cert.pre) then
        fail path "invariance"
          "occurrence precondition is not the policy invariant in {V,L,G} form";
      let path', n' = skip_conseq path n in
      List.iteri
        (fun i child -> occurrence (child_path path' i) child)
        n'.Cert.children
    in
    occurrence "0" c.Cert.root;
    if not (v_ok c.Cert.root.Cert.post) then
      fail "0" "invariance"
        "root postcondition is not the policy invariant in {V,L,G} form";
    (match Assertion.triple_of lat c.Cert.root.Cert.pre with
    | Some { Assertion.l = lb; g = gb; _ } ->
      let is_const e = (Cexpr.normalize lat e).Cexpr.atoms = [] in
      if not (is_const lb && is_const gb) then
        fail "0" "root"
          "root precondition local/global bounds must be constant classes"
    | None -> ());
    finish ()
  end
