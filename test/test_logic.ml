(* Tests for the flow logic: class expressions, assertions, entailment,
   the Figure 1 proof checker, the Theorem 1 generator, and the Theorem
   1+2 equivalence with CFM. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Gen = Ifc_lang.Gen
module Prng = Ifc_support.Prng
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Cexpr = Ifc_logic.Cexpr
module Assertion = Ifc_logic.Assertion
module Entail = Ifc_logic.Entail
module Proof = Ifc_logic.Proof
module Check = Ifc_logic.Check
module Generate = Ifc_logic_gen.Generate
module Invariance = Ifc_logic_gen.Invariance

let check = Alcotest.(check bool)

let two = Chain.two

let low = two.Lattice.bottom

let high = two.Lattice.top

let stmt src =
  match Parser.parse_stmt src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let binding pairs = Binding.make two pairs

(* ------------------------------------------------------------------ *)
(* Class expressions *)

let test_cexpr_normalize () =
  let e =
    Cexpr.Join
      ( Cexpr.Join (Cexpr.Cls "x", Cexpr.Const low),
        Cexpr.Join (Cexpr.Local, Cexpr.Join (Cexpr.Cls "x", Cexpr.Const high)) )
  in
  let n = Cexpr.normalize two e in
  Alcotest.(check int) "const folded" high n.Cexpr.const;
  Alcotest.(check int) "two atoms" 2 (List.length n.Cexpr.atoms);
  check "normal form roundtrip" true (Cexpr.equal two e (Cexpr.of_normal n))

let test_cexpr_equal_modulo_assoc () =
  let a = Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Cls "y", Cexpr.Local)) in
  let b = Cexpr.Join (Cexpr.Join (Cexpr.Local, Cexpr.Cls "y"), Cexpr.Cls "x") in
  check "assoc/comm equality" true (Cexpr.equal two a b);
  check "idempotence" true (Cexpr.equal two a (Cexpr.Join (a, a)));
  check "different" false (Cexpr.equal two a (Cexpr.Cls "x"))

let test_cexpr_subst_simultaneous () =
  (* [x <- y, y <- x] must swap, not chain. *)
  let e = Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y") in
  let sigma = function
    | Cexpr.S_cls "x" -> Some (Cexpr.Cls "y")
    | Cexpr.S_cls "y" -> Some (Cexpr.Cls "x")
    | _ -> None
  in
  check "swap" true (Cexpr.equal two (Cexpr.subst sigma e) e);
  let e2 = Cexpr.subst sigma (Cexpr.Cls "x") in
  check "x becomes y" true (Cexpr.equal two e2 (Cexpr.Cls "y"))

let test_cexpr_of_expr () =
  let e =
    match Parser.parse_expr "x + 3 * y" with Ok e -> e | Error _ -> Alcotest.fail "parse"
  in
  let c = Cexpr.of_expr two e in
  check "class of expr" true
    (Cexpr.equal two c (Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y")))

let test_cexpr_eval () =
  let env = function
    | Cexpr.S_cls "x" -> high
    | Cexpr.S_cls _ -> low
    | Cexpr.S_local -> low
    | Cexpr.S_global -> low
  in
  Alcotest.(check int) "eval join" high
    (Cexpr.eval two env (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)));
  Alcotest.(check int) "eval const" low (Cexpr.eval two env (Cexpr.Const low))

(* ------------------------------------------------------------------ *)
(* Assertions *)

let policy_xy = Assertion.policy (binding [ ("x", high); ("y", low) ]) [ "x"; "y" ]

let test_assertion_triple () =
  let a =
    Assertion.of_triple
      { Assertion.v = policy_xy; l = Cexpr.Const low; g = Cexpr.Const high }
  in
  match Assertion.triple_of two a with
  | None -> Alcotest.fail "triple_of failed"
  | Some t ->
    check "v recovered" true (Assertion.equal two t.Assertion.v policy_xy);
    check "l recovered" true (Cexpr.equal two t.Assertion.l (Cexpr.Const low));
    check "g recovered" true (Cexpr.equal two t.Assertion.g (Cexpr.Const high))

let test_assertion_triple_rejects_mixed () =
  (* local occurring in a V atom breaks the {V,L,G} form. *)
  let bad =
    [ Assertion.atom (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)) (Cexpr.Const high);
      Assertion.atom Cexpr.Local (Cexpr.Const low);
      Assertion.atom Cexpr.Global (Cexpr.Const low) ]
  in
  check "rejected" true (Assertion.triple_of two bad = None);
  (* missing global bound *)
  let missing = [ Assertion.atom Cexpr.Local (Cexpr.Const low) ] in
  check "missing bound rejected" true (Assertion.triple_of two missing = None)

let test_assertion_equal_unordered () =
  let a = policy_xy and b = List.rev policy_xy in
  check "order irrelevant" true (Assertion.equal two a b);
  check "duplicates irrelevant" true (Assertion.equal two a (a @ a))

let test_assertion_holds () =
  let env = function
    | Cexpr.S_cls "x" -> high
    | _ -> low
  in
  check "x<=high, y<=low holds" true (Assertion.holds two env policy_xy);
  let env_bad = fun _ -> high in
  check "y=high violates" false (Assertion.holds two env_bad policy_xy)

(* ------------------------------------------------------------------ *)
(* Entailment *)

let atom l r = Assertion.atom l r

let test_entail_basic () =
  let hyps =
    [ atom (Cexpr.Cls "x") (Cexpr.Const low); atom Cexpr.Local (Cexpr.Const low) ]
  in
  check "join of lows" true
    (Entail.check two hyps
       [ atom (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)) (Cexpr.Const low) ]);
  check "cannot raise" false
    (Entail.check two [ atom (Cexpr.Cls "x") (Cexpr.Const high) ]
       [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_entail_chaining () =
  (* x <= local, local <= low |- x <= low: via the hypothesis chain. *)
  let hyps =
    [ atom (Cexpr.Cls "x") Cexpr.Local; atom Cexpr.Local (Cexpr.Const low) ]
  in
  check "chain" true (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_entail_join_ub () =
  (* |- x <= x (+) y without hypotheses. *)
  check "join upper bound" true
    (Entail.check two []
       [ atom (Cexpr.Cls "x") (Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y")) ])

let test_entail_cycle_safe () =
  (* x <= y, y <= x must terminate (and prove x <= y). *)
  let hyps = [ atom (Cexpr.Cls "x") (Cexpr.Cls "y"); atom (Cexpr.Cls "y") (Cexpr.Cls "x") ] in
  check "terminates, proves" true (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Cls "y") ]);
  check "terminates, rejects" false
    (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_decide_complete () =
  (* decide is complete: x <= y, y <= z |- x <= z even written with joins
     the syntactic checker handles too. *)
  let hyps = [ atom (Cexpr.Cls "x") (Cexpr.Cls "y"); atom (Cexpr.Cls "y") (Cexpr.Cls "z") ] in
  (match Entail.decide two hyps [ atom (Cexpr.Cls "x") (Cexpr.Cls "z") ] with
  | Ok b -> check "transitive" true b
  | Error e -> Alcotest.fail e);
  match Entail.decide two [] [ atom (Cexpr.Cls "x") (Cexpr.Const low) ] with
  | Ok b -> check "unconstrained is not low" false b
  | Error e -> Alcotest.fail e

let test_decide_limit () =
  let many = List.init 40 (fun i -> atom (Cexpr.Cls (Printf.sprintf "v%d" i)) (Cexpr.Const low)) in
  check "limit reported" true (Result.is_error (Entail.decide ~max_valuations:100 two many many))

(* qcheck: the syntactic checker is sound w.r.t. the complete decider. *)
let qcheck_entail_sound =
  let gen_cexpr =
    QCheck.Gen.(
      sized_size (int_bound 4) (fix (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun b -> Cexpr.Const (if b then high else low)) bool;
                oneofl [ Cexpr.Cls "x"; Cexpr.Cls "y"; Cexpr.Local; Cexpr.Global ] ]
          else map2 (fun a b -> Cexpr.Join (a, b)) (self (n / 2)) (self (n / 2)))))
  in
  let gen_atom = QCheck.Gen.map2 atom gen_cexpr gen_cexpr in
  let gen_assertion = QCheck.Gen.(list_size (int_bound 4) gen_atom) in
  let arb = QCheck.make QCheck.Gen.(pair gen_assertion gen_assertion) in
  QCheck.Test.make ~name:"syntactic entailment sound wrt complete" ~count:1000 arb
    (fun (hyps, goals) ->
      if Entail.check two hyps goals then
        match Entail.decide two hyps goals with
        | Ok b -> b
        | Error _ -> QCheck.assume_fail ()
      else true)
  |> QCheck_alcotest.to_alcotest

(* The syntactic derivation as it stood before [Entail.check] normalised
   each hypothesis once per call, kept verbatim as the reference the
   current procedure must agree with on every input. *)
module Reference_entail = struct
  let rec derive_atom (l : 'a Lattice.t) hyps visited atom (goal : 'a Cexpr.normal) =
    match atom with
    | `Const c -> l.Lattice.leq c goal.Cexpr.const
    | `Sym s ->
      List.exists (fun s' -> Cexpr.compare_sym s s' = 0) goal.Cexpr.atoms
      || (not (List.mem s visited))
         && List.exists
              (fun (h : 'a Assertion.atom) ->
                let lhs_n = Cexpr.normalize l h.Assertion.lhs in
                List.exists (fun s' -> Cexpr.compare_sym s s' = 0) lhs_n.Cexpr.atoms
                && derive_expr l hyps (s :: visited) h.Assertion.rhs goal)
              hyps

  and derive_expr l hyps visited e goal =
    let n = Cexpr.normalize l e in
    derive_atom l hyps visited (`Const n.Cexpr.const) goal
    && List.for_all (fun s -> derive_atom l hyps visited (`Sym s) goal) n.Cexpr.atoms

  let check (l : 'a Lattice.t) hyps goals =
    List.for_all
      (fun (g : 'a Assertion.atom) ->
        let goal_n = Cexpr.normalize l g.Assertion.rhs in
        derive_expr l hyps [] g.Assertion.lhs goal_n)
      goals
end

(* Random hypotheses and goals over a lattice's classes: constants on
   either side of an atom, chains and cycles among symbols, and
   duplicated hypotheses. *)
let qcheck_entail_matches_reference name (l : 'a Lattice.t) =
  let open QCheck.Gen in
  let elements = Array.of_list l.Lattice.elements in
  let sym = oneofl [ Cexpr.Cls "x"; Cexpr.Cls "y"; Cexpr.Cls "z"; Cexpr.Local; Cexpr.Global ] in
  let leaf = frequency [ (3, sym); (2, map (fun i -> Cexpr.Const elements.(i)) (int_bound (Array.length elements - 1))) ] in
  let cexpr =
    sized_size (int_bound 3)
      (fix (fun self n ->
           if n <= 0 then leaf
           else frequency [ (1, leaf); (2, map2 (fun a b -> Cexpr.Join (a, b)) (self (n - 1)) (self (n - 1))) ]))
  in
  let atom_gen = map2 atom cexpr cexpr in
  let cycle = map2 (fun a b -> [ atom a b; atom b a ]) sym sym in
  let hyps =
    map3
      (fun base cycles dup ->
        let hs = base @ List.concat cycles in
        match (hs, dup) with
        | [], _ -> hs
        | _, k -> hs @ [ List.nth hs (k mod List.length hs) ])
      (list_size (int_bound 6) atom_gen) (list_size (int_bound 2) cycle) nat
  in
  let goals = list_size (int_range 1 3) atom_gen in
  QCheck.Test.make ~name:("entailment matches the reference derivation on " ^ name) ~count:400
    (QCheck.make (pair hyps goals))
    (fun (hyps, goals) ->
      Bool.equal (Entail.check l hyps goals) (Reference_entail.check l hyps goals))
  |> QCheck_alcotest.to_alcotest

(* Pinned error lists: a failing Theorem-1 proof reports every error in
   walk order with its exact text; a failing emit reports their count as
   its [checks]. Recorded before Check decided each distinct
   interference obligation once. *)
let check_pinned_errors name (proof : 'a Proof.t) (l : 'a Lattice.t) ~count ~interference ~md5 =
  match Check.check l proof with
  | Ok () -> Alcotest.failf "%s: expected errors" name
  | Error es ->
    Alcotest.(check int) (name ^ ": count") count (List.length es);
    Alcotest.(check int) (name ^ ": interference errors") interference
      (List.length (List.filter (fun (e : Check.error) -> e.Check.rule = "concurrency") es));
    Alcotest.(check string) (name ^ ": every span, rule and reason") md5
      (Digest.to_hex
         (Digest.string
            (String.concat "\n" (List.map (fun e -> Fmt.str "%a" Check.pp_error e) es))))

let test_pinned_check_errors () =
  let parse_exn src =
    match Parser.parse_program src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  in
  let fig3 = Ifc_core.Paper.fig3 in
  check_pinned_errors "fig3 leak"
    (Generate.theorem1 (binding [ ("x", high) ]) fig3.Ast.body)
    two ~count:6 ~interference:0 ~md5:"50fcd47cf4f4272f0e4e235ac58b3ea1";
  let generated =
    parse_exn
      {|var a, b, c, d, e, f, g : integer;
    s, t : semaphore initially(0);
cobegin
  begin
    signal(s); signal(s); e := 0 - g; cobegin f := 0 * c || signal(t) coend
  end
  ||
  cobegin begin e := f * e; e := d + g end || e := f <= d coend
  ||
  while c = 2 do if g > 3 then wait(s) else d := d fi od
  ||
  if e <> 2 then begin signal(s); f := b + 1 end
  else if a <> 2 then g := c + 3 else e := -0 fi
  fi
coend|}
  in
  let b =
    binding
      [ ("b", high); ("c", high); ("d", high); ("f", high); ("g", high) ]
  in
  check_pinned_errors "generated cobegin"
    (Generate.theorem1 b generated.Ast.body)
    two ~count:11 ~interference:6 ~md5:"6e45a4a44f3efeb46577576c167403cb";
  (* The failing emit reports the same count as its checks. *)
  let names = Lattice.stringify two in
  let job =
    Ifc_pipeline.Job.make ~id:0 ~name:"generated" ~lattice:names
      ~binding:
        (Binding.make names
           (List.map (fun v -> (v, "high")) [ "b"; "c"; "d"; "f"; "g" ]))
      ~analyses:[ Ifc_pipeline.Job.Cert ] generated
  in
  match (Ifc_pipeline.Job.run job).Ifc_pipeline.Job.outcome with
  | Ok [ r ] ->
    check "emit fails" false r.Ifc_pipeline.Job.verdict;
    Alcotest.(check int) "emit checks" 11 r.Ifc_pipeline.Job.checks
  | _ -> Alcotest.fail "expected one cert result"

(* ------------------------------------------------------------------ *)
(* Proof checker on hand-built proofs *)

let const c = Cexpr.Const c

let bounds_lg l g rest = rest @ [ atom Cexpr.Local (const l); atom Cexpr.Global (const g) ]

let test_check_52_manual_proof () =
  (* The §5.2 proof that begin x := 0; y := x end preserves the policy
     x<=high, y<=low — a proof CFM has no counterpart for. *)
  let s = stmt "begin x := 0; y := x end" in
  let s1, s2 =
    match s.Ast.node with Ast.Seq [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let p_pre =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const high); atom (Cexpr.Cls "y") (const low) ]
  in
  let mid =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const low) ]
  in
  (* x := 0 : axiom pre is mid[x <- low(+)local(+)global]. *)
  let sigma_x = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax1 =
    Proof.make ~pre:(Assertion.subst sigma_x mid) ~stmt:s1 ~post:mid Proof.Axiom_assign
  in
  let p1 = Proof.make ~pre:p_pre ~stmt:s1 ~post:mid (Proof.Consequence ax1) in
  let sigma_y = function
    | Cexpr.S_cls "y" ->
      Some (Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax2 =
    Proof.make ~pre:(Assertion.subst sigma_y mid) ~stmt:s2 ~post:mid Proof.Axiom_assign
  in
  let p2 = Proof.make ~pre:mid ~stmt:s2 ~post:mid (Proof.Consequence ax2) in
  let whole = Proof.make ~pre:p_pre ~stmt:s ~post:mid (Proof.Composition [ p1; p2 ]) in
  (match Check.check two whole with
  | Ok () -> ()
  | Error es -> Alcotest.failf "checker rejected: %a" (Fmt.list Check.pp_error) es);
  (* And CFM indeed cannot certify it (tested in Test_cfm too). *)
  check "CFM rejects" false
    (Cfm.certified (binding [ ("x", high); ("y", low) ]) s);
  (* The proof strengthens the policy mid-stream, so it is NOT completely
     invariant — exactly the paper's point. *)
  check "not completely invariant" false
    (Proof.completely_invariant two ~invariant:p_pre whole)

let test_check_rejects_bogus_axiom () =
  (* {y<=low} x := y {y<=low, x<=low} with x high into low and a pre that
     does not match the substitution: must be rejected. *)
  let s = stmt "x := y" in
  let post =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const high) ]
  in
  let bogus = Proof.make ~pre:post ~stmt:s ~post Proof.Axiom_assign in
  check "rejected" false (Check.valid two bogus)

let test_check_rejects_wrong_shape () =
  let s = stmt "x := y" in
  let a = bounds_lg low low [] in
  let bogus = Proof.make ~pre:a ~stmt:s ~post:a Proof.Axiom_wait in
  check "wait rule on assign rejected" false (Check.valid two bogus)

let test_check_rejects_false_consequence () =
  let s = stmt "x := 1" in
  let weak = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let strong = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  (* x<=high |- x<=low is false; consequence must fail. *)
  let sigma = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax = Proof.make ~pre:(Assertion.subst sigma weak) ~stmt:s ~post:weak Proof.Axiom_assign in
  let bad = Proof.make ~pre:(Assertion.subst sigma weak) ~stmt:s ~post:strong (Proof.Consequence ax) in
  check "rejected" false (Check.valid two bad)

(* Structural-rule rejections: mutate a valid generated proof in each of
   the ways the rules forbid and confirm the checker objects. *)

let test_check_rejects_mutated_structures () =
  (* A valid generated fixture must check (guards the fixtures below)... *)
  let fixture = Generate.theorem1 (binding [ ("x", high) ]) (stmt "while x > 0 do x := x - 1") in
  (match Check.check two fixture with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fixture proof invalid: %a" (Fmt.list Check.pp_error) es);
  (* ... while an iteration whose body is not an invariant is refused. *)
  let body = stmt "x := x - 1" in
  let whole = stmt "while x > 0 do x := x - 1" in
  let a_pre = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let a_post = bounds_lg low high [ atom (Cexpr.Cls "x") (const high) ] in
  let body_proof = Proof.make ~pre:a_pre ~stmt:body ~post:a_post Proof.Axiom_assign in
  let broken =
    Proof.make ~pre:a_pre ~stmt:whole ~post:a_post (Proof.Iteration body_proof)
  in
  check "non-invariant body rejected" false (Check.valid two broken)

let test_check_rejects_composition_gaps () =
  (* Adjacent post/pre mismatch inside a composition. *)
  let s = stmt "begin x := 1; x := 2 end" in
  let s1, s2 =
    match s.Ast.node with Ast.Seq [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let p_low = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  let p_high = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let sigma = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax1 = Proof.make ~pre:(Assertion.subst sigma p_low) ~stmt:s1 ~post:p_low Proof.Axiom_assign in
  let ax2 = Proof.make ~pre:(Assertion.subst sigma p_high) ~stmt:s2 ~post:p_high Proof.Axiom_assign in
  (* ax1 ends at {x<=low,...}; ax2 begins at a *different* assertion. *)
  let broken =
    Proof.make ~pre:ax1.Proof.pre ~stmt:s ~post:p_high (Proof.Composition [ ax1; ax2 ])
  in
  check "post/pre gap rejected" false (Check.valid two broken);
  (* Arity mismatch. *)
  let broken2 =
    Proof.make ~pre:ax1.Proof.pre ~stmt:s ~post:p_low (Proof.Composition [ ax1 ])
  in
  check "arity mismatch rejected" false (Check.valid two broken2)

let test_check_rejects_alternation_violations () =
  (* Branch proofs that disagree on their postconditions. *)
  let s = stmt "if c = 0 then x := 1 else x := 2" in
  let s1, s2 =
    match s.Ast.node with Ast.If (_, a, b) -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let post1 = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  let post2 = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let sigma post = Assertion.subst (function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) post
  in
  let p1 = Proof.make ~pre:(sigma post1) ~stmt:s1 ~post:post1 Proof.Axiom_assign in
  let p2 = Proof.make ~pre:(sigma post2) ~stmt:s2 ~post:post2 Proof.Axiom_assign in
  let broken =
    Proof.make ~pre:(sigma post1) ~stmt:s ~post:post1 (Proof.Alternation (p1, p2))
  in
  check "disagreeing branch posts rejected" false (Check.valid two broken)

let test_check_rejects_interference () =
  (* Two processes sharing x: one asserts x <= low invariantly, the other
     assigns high data to x. The concurrency rule's interference check
     must refuse. *)
  let s = stmt "cobegin y := x || x := h coend" in
  let s1, s2 =
    match s.Ast.node with Ast.Cobegin [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let v1 = [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const low) ] in
  let v2 = [ atom (Cexpr.Cls "h") (const high); atom (Cexpr.Cls "x") (const high) ] in
  let tri v = bounds_lg low low v in
  let sigma_y p = Assertion.subst (function
    | Cexpr.S_cls "y" ->
      Some (Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) p
  in
  let sigma_x p = Assertion.subst (function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (Cexpr.Cls "h", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) p
  in
  let p1_post = tri v1 in
  let p1 = Proof.make ~pre:(sigma_y p1_post) ~stmt:s1 ~post:p1_post Proof.Axiom_assign in
  let p1 = Proof.make ~pre:(tri v1) ~stmt:s1 ~post:p1_post (Proof.Consequence p1) in
  let p2_post = tri v2 in
  let p2 = Proof.make ~pre:(sigma_x p2_post) ~stmt:s2 ~post:p2_post Proof.Axiom_assign in
  let p2 = Proof.make ~pre:(tri v2) ~stmt:s2 ~post:p2_post (Proof.Consequence p2) in
  let whole =
    Proof.make ~pre:(tri (v1 @ v2)) ~stmt:s ~post:(tri (v1 @ v2))
      (Proof.Concurrency [ p1; p2 ])
  in
  (* The x <= low assertion in process 1 is NOT preserved by x := h. With
     the interference check on, the proof must fail; trusting it, the
     (unsound) proof would pass the remaining shape checks. *)
  check "interference detected" false
    (Result.is_ok (Check.check ~interference:`Check two whole));
  check "trust mode skips the check" true
    (Result.is_ok (Check.check ~interference:`Trust two whole))

(* ------------------------------------------------------------------ *)
(* Theorem 1 generator *)

let all_two_bindings vars =
  let rec go = function
    | [] -> [ [] ]
    | v :: rest ->
      let tails = go rest in
      List.concat_map (fun t -> [ (v, low) :: t; (v, high) :: t ]) tails
  in
  go vars

let test_generate_simple_certified () =
  let s = stmt "begin x := 1; y := x end" in
  let b = binding [ ("x", low); ("y", high) ] in
  match Invariance.witness b s with
  | Error es -> Alcotest.failf "rejected: %a" (Fmt.list Check.pp_error) es
  | Ok proof ->
    check "completely invariant" true
      (Proof.completely_invariant two ~invariant:(Generate.invariant_of b s) proof)

let test_generate_uncertified_fails_check () =
  let s = stmt "y := x" in
  let b = binding [ ("x", high); ("y", low) ] in
  check "CFM rejects" false (Cfm.certified b s);
  check "generated proof fails the checker" false (Invariance.decide b s)

let test_generate_fig3 () =
  let s = Ifc_core.Paper.fig3.Ast.body in
  let vars = Ifc_core.Paper.fig3_vars in
  (* All-high binding certifies; its Theorem-1 proof must check, cobegin
     interference freedom included. *)
  let b_ok = binding (List.map (fun v -> (v, high)) vars) in
  (match Invariance.witness b_ok s with
  | Ok proof ->
    check "invariant" true
      (Proof.completely_invariant two ~invariant:(Generate.invariant_of b_ok s) proof)
  | Error es -> Alcotest.failf "fig3 all-high rejected: %a" (Fmt.list Check.pp_error) es);
  (* x high, rest low: uncertified, so the proof must fail. *)
  let b_leak = binding (("x", high) :: List.map (fun v -> (v, low)) (List.tl vars)) in
  check "leaky binding fails" false (Invariance.decide b_leak s)

let test_theorem1_all_l_g () =
  (* For a certified S, the proof exists for every l, g with
     l (+) g <= mod(S). For l (+) g not below mod(S) nothing is claimed,
     but our construction may still fail — only check the promised side. *)
  let s = stmt "begin wait(sem); y := 1 end" in
  let b = binding [ ("sem", high); ("y", high) ] in
  let mod_s = Cfm.mod_of b s in
  List.iter
    (fun l ->
      List.iter
        (fun g ->
          if two.Lattice.leq (two.Lattice.join l g) mod_s then
            check
              (Printf.sprintf "l=%s g=%s" (two.Lattice.to_string l) (two.Lattice.to_string g))
              true
              (Invariance.decide_at ~l ~g b s))
        two.Lattice.elements)
    two.Lattice.elements

(* ------------------------------------------------------------------ *)
(* The headline property: Theorems 1 + 2 — generated-proof-checks iff
   CFM-certified, over random programs and bindings. *)

let random_binding rng lattice s =
  let arr = Array.of_list lattice.Lattice.elements in
  let vars = Ifc_lang.Vars.all_vars s in
  Binding.make lattice
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Ifc_support.Sset.elements vars))

let theorem_equivalence_case lattice seed count name =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.create seed in
      let certified = ref 0 in
      for i = 1 to count do
        let p = Gen.program rng Gen.default ~size:(1 + (i mod 25)) in
        let b = random_binding rng lattice p.Ast.body in
        let cert = Cfm.certified b p.Ast.body in
        if cert then incr certified;
        let proof_ok = Invariance.decide b p.Ast.body in
        if cert <> proof_ok then
          Alcotest.failf "divergence (cert=%b proof=%b) on:@.%s@.binding: %a" cert
            proof_ok
            (Ifc_lang.Pretty.program_to_string p)
            Binding.pp b
      done;
      (* Guard against a vacuous test run. *)
      check "some programs certified" true (!certified > 0))

let equivalence_cases =
  [
    theorem_equivalence_case two 101 250 "thm1+2 equivalence (two-point)";
    theorem_equivalence_case Chain.four 202 150 "thm1+2 equivalence (four-chain)";
    theorem_equivalence_case
      (Ifc_lattice.Product.make Chain.two (Ifc_lattice.Powerset.make [ "a"; "b" ]))
      303 150 "thm1+2 equivalence (two x powerset)";
  ]

let test_generated_proofs_completely_invariant () =
  let rng = Prng.create 404 in
  for i = 1 to 100 do
    let p = Gen.program rng Gen.default ~size:(1 + (i mod 20)) in
    let b = random_binding rng two p.Ast.body in
    if Cfm.certified b p.Ast.body then
      match Invariance.witness b p.Ast.body with
      | Error es -> Alcotest.failf "rejected: %a" (Fmt.list Check.pp_error) es
      | Ok proof ->
        check "completely invariant" true
          (Proof.completely_invariant two
             ~invariant:(Generate.invariant_of b p.Ast.body)
             proof)
  done

let test_checker_complete_entailer_agrees () =
  (* On small certified programs the complete entailer must agree with the
     syntactic one. *)
  let rng = Prng.create 505 in
  for i = 1 to 60 do
    let p = Gen.program rng { Gen.default with vars = [ "x"; "y" ]; sems = [ "s" ] }
        ~size:(1 + (i mod 8))
    in
    let b = random_binding rng two p.Ast.body in
    let proof = Generate.theorem1 b p.Ast.body in
    let syntactic = Check.valid ~entailer:`Syntactic two proof in
    let complete = Check.valid ~entailer:`Complete two proof in
    if syntactic <> complete then
      Alcotest.failf "entailer divergence on:@.%s" (Ifc_lang.Pretty.program_to_string p)
  done

let test_proof_size_linear () =
  (* The derivation has O(|S|) rule applications — the efficiency claim
     carries over to proof generation. *)
  let rng = Prng.create 606 in
  List.iter
    (fun size ->
      let p = Gen.program rng Gen.default ~size in
      let b = random_binding rng two p.Ast.body in
      let proof = Generate.theorem1 b p.Ast.body in
      let stmts = (Ifc_lang.Metrics.of_program p).Ifc_lang.Metrics.statements in
      check
        (Printf.sprintf "size %d: %d nodes for %d stmts" size (Proof.size proof) stmts)
        true
        (Proof.size proof <= (3 * stmts) + 3))
    [ 10; 50; 200 ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let s = stmt "begin wait(s); y := 1 end" in
  let b = binding [ ("s", low); ("y", low) ] in
  let proof = Generate.theorem1 b s in
  let rendered = Fmt.str "%a" (Proof.pp two) proof in
  check "renders something" true (String.length rendered > 50);
  check "mentions composition" true (contains rendered "composition")

let suite =
  ( "logic",
    [
      Alcotest.test_case "cexpr normalize" `Quick test_cexpr_normalize;
      Alcotest.test_case "cexpr equality" `Quick test_cexpr_equal_modulo_assoc;
      Alcotest.test_case "cexpr simultaneous subst" `Quick test_cexpr_subst_simultaneous;
      Alcotest.test_case "cexpr of_expr" `Quick test_cexpr_of_expr;
      Alcotest.test_case "cexpr eval" `Quick test_cexpr_eval;
      Alcotest.test_case "assertion triple" `Quick test_assertion_triple;
      Alcotest.test_case "assertion triple rejects mixed" `Quick
        test_assertion_triple_rejects_mixed;
      Alcotest.test_case "assertion equal unordered" `Quick test_assertion_equal_unordered;
      Alcotest.test_case "assertion holds" `Quick test_assertion_holds;
      Alcotest.test_case "entail basic" `Quick test_entail_basic;
      Alcotest.test_case "entail chaining" `Quick test_entail_chaining;
      Alcotest.test_case "entail join ub" `Quick test_entail_join_ub;
      Alcotest.test_case "entail cycle safe" `Quick test_entail_cycle_safe;
      Alcotest.test_case "decide complete" `Quick test_decide_complete;
      Alcotest.test_case "decide limit" `Quick test_decide_limit;
      qcheck_entail_sound;
      qcheck_entail_matches_reference "two" (Lattice.stringify Chain.two);
      qcheck_entail_matches_reference "mls" (Lattice.stringify Ifc_lattice.Mls.standard);
      Alcotest.test_case "pinned check errors" `Quick test_pinned_check_errors;
      Alcotest.test_case "5.2 manual proof checks" `Quick test_check_52_manual_proof;
      Alcotest.test_case "checker rejects bogus axiom" `Quick
        test_check_rejects_bogus_axiom;
      Alcotest.test_case "checker rejects wrong shape" `Quick test_check_rejects_wrong_shape;
      Alcotest.test_case "checker rejects false consequence" `Quick
        test_check_rejects_false_consequence;
      Alcotest.test_case "checker rejects broken iteration" `Quick
        test_check_rejects_mutated_structures;
      Alcotest.test_case "checker rejects composition gaps" `Quick
        test_check_rejects_composition_gaps;
      Alcotest.test_case "checker rejects alternation violations" `Quick
        test_check_rejects_alternation_violations;
      Alcotest.test_case "checker detects interference" `Quick
        test_check_rejects_interference;
      Alcotest.test_case "generate simple certified" `Quick test_generate_simple_certified;
      Alcotest.test_case "generate uncertified fails" `Quick
        test_generate_uncertified_fails_check;
      Alcotest.test_case "generate fig3" `Quick test_generate_fig3;
      Alcotest.test_case "theorem1 all l,g" `Quick test_theorem1_all_l_g;
      Alcotest.test_case "generated proofs completely invariant" `Quick
        test_generated_proofs_completely_invariant;
      Alcotest.test_case "entailers agree on generated proofs" `Quick
        test_checker_complete_entailer_agrees;
      Alcotest.test_case "proof size linear" `Quick test_proof_size_linear;
      Alcotest.test_case "proof pp smoke" `Quick test_pp_smoke;
    ]
    @ equivalence_cases )
