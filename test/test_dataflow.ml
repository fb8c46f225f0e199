(* Tests for the abstract-interpretation dataflow engine: worklist
   solver order-independence, widening termination on adversarial loop
   nests, interval/concrete agreement, guard-lint delegation pinned
   byte-for-byte, infeasible-path pruning cross-checked against the
   executor, dead stores, flow-witness replay, and per-module facts
   re-applied to a linked unit's elaboration. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Binding = Ifc_core.Binding
module Chain = Ifc_lattice.Chain
module Lattice = Ifc_lattice.Lattice
module Eval = Ifc_exec.Eval
module Explore = Ifc_exec.Explore
module Cfg = Ifc_dataflow.Cfg
module Solver = Ifc_dataflow.Solver
module Interval = Ifc_dataflow.Interval
module Prune = Ifc_dataflow.Prune
module Witness = Ifc_dataflow.Witness
module Dsummary = Ifc_dataflow.Dsummary
module Sset = Ifc_support.Sset
module Prng = Ifc_support.Prng

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let qtest ?(count = 80) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let two = Lattice.stringify Chain.two

let parse_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

(* Generated programs carry dummy spans; span-level assertions need real
   ones. The pretty-print/re-parse round trip is pinned elsewhere, so
   this is semantics-preserving. *)
let with_spans p = parse_exn (Pretty.program_to_string p)

(* ------------------------------------------------------------------ *)
(* Solver *)

module Intervals = Solver.Make (Interval.Dom)

let interval_graph (cfg : Cfg.t) =
  {
    Intervals.node_count = cfg.Cfg.node_count;
    edges =
      List.map
        (fun (e : Cfg.edge) ->
          {
            Intervals.src = e.Cfg.src;
            dst = e.Cfg.dst;
            transfer = Interval.transfer ~volatile:e.Cfg.volatile e.Cfg.action;
          })
        cfg.Cfg.edges;
    entry = [ cfg.Cfg.entry ];
    widen_points = cfg.Cfg.loop_heads;
  }

(* The fixpoint of a monotone problem does not depend on the order the
   worklist is drained in: identity, reversed, and a scrambled priority
   must all land on the same node states. *)
let test_solver_order_independent =
  qtest "solver fixpoint is work-order independent"
    (Qcheck_arbitrary.program ~max_size:25 ())
    (fun p ->
      let g = interval_graph (Cfg.of_program p) in
      let reference, _ = Intervals.solve g ~init:Interval.top_env in
      List.for_all
        (fun order ->
          let states, _ = Intervals.solve ~order g ~init:Interval.top_env in
          Array.for_all2
            (fun a b -> Interval.Dom.equal a b)
            reference states)
        [ (fun n -> -n); (fun n -> (n * 7919) mod 101); (fun _ -> 0) ])

(* Two pinned programs for the property above. In the first, widening
   on arrival let a drain that reached the [if]'s merge after one arm
   widen the inner loop head past what the full join needs, so the
   reversed and scrambled orders disagreed with the identity. The
   second pins that holding widening back costs no precision: the last
   loop head sees both arms of the [if] joined — one of them a loop —
   and keeps [w <= 2] under every order. *)
let test_solver_order_pinned () =
  let orders =
    [ (fun n -> n); (fun n -> -n); (fun n -> (n * 7919) mod 101); (fun _ -> 0) ]
  in
  let solve_all src =
    let cfg = Cfg.of_program (parse_exn src) in
    let g = interval_graph cfg in
    ( cfg,
      List.map
        (fun order -> fst (Intervals.solve ~order g ~init:Interval.top_env))
        orders )
  in
  let _, runs =
    solve_all
      {|
var x : integer;
while x > 0 do begin skip; if x = 3 then skip fi; while 0 do skip od end od
|}
  in
  let reference = List.hd runs in
  List.iteri
    (fun i states ->
      check (Printf.sprintf "order %d matches the identity order" i) true
        (Array.for_all2 Interval.Dom.equal reference states))
    runs;
  let cfg, runs =
    solve_all
      {|
var w, y : integer;
begin
  if w = 0 then skip else while w > 2 do w := w - 1 od fi;
  while y < 2 do y := y + 1 od
end
|}
  in
  let last_head = List.fold_left max 0 cfg.Cfg.loop_heads in
  List.iteri
    (fun i states ->
      check
        (Printf.sprintf "order %d keeps w <= 2 at the last loop head" i)
        true
        (Interval.value_equal
           (Interval.lookup ~volatile:Sset.empty states.(last_head) "w")
           (Interval.Itv (Interval.Ninf, Interval.Fin 2))))
    runs

(* Widening keeps adversarial loop nests cheap: a triple nest counting
   to large constants would take ~10^9 visits without it. *)
let test_widening_terminates () =
  let p =
    parse_exn
      {|
var i, j, k, acc : integer;
begin
  i := 0;
  while i < 100000 do begin
    j := 0;
    while j < 100000 do begin
      k := 0;
      while k < 100000 do begin
        acc := acc + i + j + k;
        k := k + 1
      end;
      j := j + 1
    end;
    i := i + 1
  end
end
|}
  in
  let r = Prune.analyze p in
  check "no arm pruned" true (r.Prune.pruned = []);
  check "fixpoint visits bounded by widening" true (r.Prune.visits < 2_000)

let test_widening_terminates_random =
  qtest ~count:60 "interval fixpoint terminates on random programs"
    (Qcheck_arbitrary.program ~max_size:30 ())
    (fun p ->
      let r = Prune.analyze p in
      (* Without widening the triple-nest fixture above would need ~10^9
         transfer applications; any random 30-statement program must
         stabilise in a tiny fraction of that. *)
      r.Prune.visits < 100_000)

(* ------------------------------------------------------------------ *)
(* Interval domain vs the concrete evaluator *)

let rec exprs_of_stmt (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Skip | Ast.Wait _ | Ast.Signal _ | Ast.Recv _ -> []
  | Ast.Assign (_, e) | Ast.Declassify (_, e, _) | Ast.Send (_, e) -> [ e ]
  | Ast.Store (_, i, e) -> [ i; e ]
  | Ast.If (c, a, b) -> (c :: exprs_of_stmt a) @ exprs_of_stmt b
  | Ast.While (c, b) -> c :: exprs_of_stmt b
  | Ast.Seq ss | Ast.Cobegin ss -> List.concat_map exprs_of_stmt ss

(* Abstract evaluation in a singleton environment contains the concrete
   value: for every expression of a generated program and every store
   mapping its variables to small ints, [Eval.expr] (when it does not
   fault) lands inside [Interval.eval] of the pointwise-singleton
   environment. This is the domain's soundness statement specialised to
   straight-line reads. *)
let test_interval_agrees_with_eval =
  qtest "interval eval contains concrete eval"
    QCheck.(pair (Qcheck_arbitrary.program ~max_size:25 ()) (int_bound 1000))
    (fun (p, salt) ->
      let vars = Sset.elements (Ifc_lang.Vars.all_vars p.Ast.body) in
      let store =
        List.map (fun v -> (v, (Hashtbl.hash (salt, v) mod 15) - 7)) vars
      in
      let arrays =
        List.filter_map
          (function
            | Ast.Arr_decl { name; size; _ } -> Some (name, Array.make size 0)
            | Ast.Var_decl _ | Ast.Sem_decl _ | Ast.Chan_decl _ -> None)
          p.Ast.decls
      in
      let cenv = Eval.env_of_list ~arrays store in
      let aenv =
        List.fold_left
          (fun env (v, n) -> Interval.set v (Interval.singleton n) env)
          Interval.top_env store
      in
      List.for_all
        (fun e ->
          match Eval.expr cenv e with
          | exception Eval.Fault _ -> true
          | n ->
            Interval.contains (Interval.eval ~volatile:Sset.empty aenv e) n)
        (exprs_of_stmt p.Ast.body))

(* ------------------------------------------------------------------ *)
(* Guard-lint delegation: pinned to the lint's historical semantics *)

let test_const_bool_pinned () =
  let parse_guard src =
    match (parse_exn ("var x : integer;\nbegin\n  while " ^ src ^ " do skip\nend")).Ast.body.Ast.node with
    | Ast.Seq [ { Ast.node = Ast.While (g, _); _ } ] | Ast.While (g, _) -> g
    | _ -> Alcotest.fail "guard fixture shape"
  in
  let cb src = Interval.const_bool (parse_guard src) in
  check "true is constant" true (cb "true" = Some true);
  check "1 = 1 folds" true (cb "1 = 1" = Some true);
  check "2 < 1 folds" true (cb "2 < 1" = Some false);
  (* A constant integer guard is truthy but deliberately NOT constant to
     the lint — the historical Guards.eval kept ints and bools apart. *)
  check "bare integer is not a constant guard" true (cb "3" = None);
  check "variable blocks folding" true (cb "x = x" = None);
  check "division by zero blocks folding" true (cb "1 / 0 = 1" = None)

(* ------------------------------------------------------------------ *)
(* Pruning: soundness against the executor, and the seeded fixture *)

let span_contains ~(outer : Loc.span) ~(inner : Loc.span) =
  let leq (a : Loc.pos) (b : Loc.pos) =
    a.Loc.line < b.Loc.line || (a.Loc.line = b.Loc.line && a.Loc.col <= b.Loc.col)
  in
  leq outer.Loc.start inner.Loc.start && leq inner.Loc.stop outer.Loc.stop

(* No execution may step a statement inside a pruned arm: bounded
   exploration from the all-zero store and a seeded store must never
   visit a span a pruned span contains. This is the same cross-check the
   fuzzer's [prune-unsound] class runs on every case. *)
let test_prune_sound_vs_exploration =
  qtest ~count:60 "pruned arms are never visited by exploration"
    QCheck.(pair (Qcheck_arbitrary.program ~max_size:20 ()) (int_bound 1000))
    (fun (p0, seed) ->
      let p = with_spans p0 in
      let r = Prune.analyze p in
      if r.Prune.pruned = [] then true
      else begin
        let ints =
          List.filter_map
            (function
              | Ast.Var_decl { name; _ } -> Some name
              | Ast.Arr_decl _ | Ast.Sem_decl _ | Ast.Chan_decl _ -> None)
            p.Ast.decls
        in
        let rng = Prng.create seed in
        let seeded = List.map (fun v -> (v, Prng.int rng 8)) ints in
        let visited =
          List.concat_map
            (fun s -> s.Explore.visited_spans)
            [
              Explore.explore_program ~max_states:4_000 p;
              Explore.explore_program ~max_states:4_000 ~inputs:seeded p;
            ]
        in
        List.for_all
          (fun (pr : Prune.pruned) ->
            not
              (List.exists
                 (fun inner ->
                   span_contains ~outer:pr.Prune.p_span ~inner)
                 visited))
          r.Prune.pruned
      end)

let prune_race_src =
  {|
var x, y : integer;
begin
  x := 1;
  if x = 0 then
    cobegin y := 1 || y := 2 coend
  else
    skip
end
|}

(* The acceptance fixture: a whole-program false positive the engine
   removes. Unpruned, the cobegin races on y; pruned, the arm is dead,
   the race claim strengthens, and the only finding is the unreachable
   warning. *)
let test_prune_removes_false_positive () =
  let p = parse_exn prune_race_src in
  let pruned_report = Ifc_analysis.Analyze.run p in
  let raw_report = Ifc_analysis.Analyze.run ~dataflow:false p in
  check "unpruned: race reported" true
    (List.exists
       (fun (f : Ifc_analysis.Finding.t) ->
         f.Ifc_analysis.Finding.kind = Ifc_analysis.Finding.Race)
       raw_report.Ifc_analysis.Analyze.findings);
  check "unpruned: race_free claim withdrawn" false
    raw_report.Ifc_analysis.Analyze.claims.Ifc_analysis.Analyze.race_free;
  check "pruned: no race finding" false
    (List.exists
       (fun (f : Ifc_analysis.Finding.t) ->
         f.Ifc_analysis.Finding.kind = Ifc_analysis.Finding.Race)
       pruned_report.Ifc_analysis.Analyze.findings);
  check "pruned: race_free claim holds" true
    pruned_report.Ifc_analysis.Analyze.claims.Ifc_analysis.Analyze.race_free;
  check_int "pruned: one arm" 1
    (List.length pruned_report.Ifc_analysis.Analyze.pruned);
  check "pruned: unreachable warning emitted" true
    (List.exists
       (fun (f : Ifc_analysis.Finding.t) ->
         f.Ifc_analysis.Finding.kind = Ifc_analysis.Finding.Unreachable)
       pruned_report.Ifc_analysis.Analyze.findings);
  (* And the executor agrees the arm is dead. *)
  let s = Explore.explore_program p in
  let pr = List.hd pruned_report.Ifc_analysis.Analyze.pruned in
  check "exploration never enters the arm" false
    (List.exists
       (fun inner -> span_contains ~outer:pr.Prune.p_span ~inner)
       s.Explore.visited_spans)

let test_const_guard_not_double_reported () =
  (* Constant guards stay Guards findings, byte-for-byte; pruning must
     not add a second (unreachable) finding for the same arm. *)
  let p = parse_exn "var y : integer;\nbegin\n  if false then y := 1 else skip\nend" in
  let report = Ifc_analysis.Analyze.run p in
  let kinds =
    List.map
      (fun (f : Ifc_analysis.Finding.t) -> f.Ifc_analysis.Finding.kind)
      report.Ifc_analysis.Analyze.findings
  in
  check "guard finding present" true
    (List.mem Ifc_analysis.Finding.Guard kinds);
  check "no unreachable finding for a constant guard" false
    (List.mem Ifc_analysis.Finding.Unreachable kinds);
  check_int "arm still pruned" 1 (List.length report.Ifc_analysis.Analyze.pruned)

let test_dead_store () =
  let p =
    parse_exn
      "var x, y : integer;\nbegin\n  x := 5;\n  x := y;\n  y := x\nend"
  in
  let r = Prune.analyze p in
  check_int "one dead store" 1 (List.length r.Prune.dead_stores);
  check_string "dead store names x" "x" (fst (List.hd r.Prune.dead_stores));
  let report = Ifc_analysis.Analyze.run p in
  check "dead-store warning emitted" true
    (List.exists
       (fun (f : Ifc_analysis.Finding.t) ->
         f.Ifc_analysis.Finding.kind = Ifc_analysis.Finding.Dead_store)
       report.Ifc_analysis.Analyze.findings)

let test_dead_store_pinned_by_cobegin () =
  (* A variable a sibling branch reads is never a dead store, whatever
     the sequential order suggests. *)
  let p =
    parse_exn
      "var x, y : integer;\nbegin\n  cobegin begin x := 5; x := 2 end || y := x coend\nend"
  in
  let r = Prune.analyze p in
  check "no dead store across cobegin" true (r.Prune.dead_stores = [])

(* ------------------------------------------------------------------ *)
(* Witnesses *)

let leak_binding () =
  Binding.make two ~default:two.Lattice.bottom [ ("x", two.Lattice.top) ]

(* Every emitted witness replays: on any rejected generated program the
   chain explain produces must survive its own step-by-step validation.
   This is the honest half of the [witness-bogus] differential. *)
let test_witness_replays =
  qtest ~count:80 "every emitted witness replays"
    (Qcheck_arbitrary.bound_program ~max_size:20 two)
    (fun bp ->
      let p = with_spans bp.Qcheck_arbitrary.prog in
      let binding = Qcheck_arbitrary.binding_of bp in
      match Witness.explain binding p with
      | None -> true (* accepted: nothing to witness *)
      | Some w -> Witness.replay binding p w)

let test_witness_direct_leak () =
  let p = parse_exn "var x, y : integer;\nbegin\n  y := x\nend" in
  let binding = leak_binding () in
  match Witness.explain binding p with
  | None -> Alcotest.fail "expected a witness for a direct leak"
  | Some w ->
    check "cfm mode" true (w.Witness.w_mode = Witness.Cfm_mode);
    check "source names x" true (List.mem "x" w.Witness.w_source);
    check "sink is the assignment rule" true
      (w.Witness.w_sink_var = Some "y");
    check "replays" true (Witness.replay binding p w)

let test_witness_global_flow () =
  (* The paper's global flow: waiting on a high semaphore then writing
     low. The witness must trace the flow to the wait. *)
  let p =
    parse_exn
      "var y : integer;\n\
      \    s : semaphore initially(0);\n\
       cobegin\n\
      \  begin wait(s); y := 1 end\n\
      \  || signal(s)\n\
       coend"
  in
  let binding =
    Binding.make two ~default:two.Lattice.bottom [ ("s", two.Lattice.top) ]
  in
  match Witness.explain binding p with
  | None -> Alcotest.fail "expected a witness for a global flow"
  | Some w ->
    check "source names the semaphore" true (List.mem "s" w.Witness.w_source);
    check "replays" true (Witness.replay binding p w)

let test_witness_corruption_caught () =
  let p = parse_exn "var x, y : integer;\nbegin\n  y := x\nend" in
  let binding = leak_binding () in
  match Witness.explain binding p with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
    let shift (pos : Loc.pos) = { pos with Loc.line = pos.Loc.line + 1000 } in
    let bogus =
      {
        w with
        Witness.w_sink_span =
          {
            Loc.start = shift w.Witness.w_sink_span.Loc.start;
            stop = shift w.Witness.w_sink_span.Loc.stop;
          };
      }
    in
    check "shifted sink fails replay" false (Witness.replay binding p bogus);
    let wrong_rule = { w with Witness.w_sink_rule = "no-such-rule" } in
    check "wrong rule fails replay" false (Witness.replay binding p wrong_rule);
    (* A source whose class does not exceed the sink's bound cannot
       explain the rejection. *)
    let wrong_source = { w with Witness.w_source = [ "y" ] } in
    check "low source fails replay" false
      (Witness.replay binding p wrong_source)

(* ------------------------------------------------------------------ *)
(* Summaries *)

let test_dsummary_apply =
  qtest "facts re-apply as direct pruning"
    (Qcheck_arbitrary.program ~max_size:25 ())
    (fun p0 ->
      let p = with_spans p0 in
      (* Re-applying recorded facts reproduces the directly pruned
         program, statement for statement. *)
      let direct = Prune.analyze p in
      let applied = Dsummary.apply p (Dsummary.of_program p) in
      Pretty.program_to_string applied.Prune.program
      = Pretty.program_to_string direct.Prune.program)

let linked_src =
  "module helper\n\
   provides (h : class <= high)\n\
   var h : integer class high;\n\
  \    t : integer class low;\n\
   begin\n\
  \  t := 1;\n\
  \  if t = 0 then h := 2 else skip\n\
   end\n\
   end\n\n\
   var z : integer class low;\n\
   begin z := 1; z := 2 end"

let test_dsummary_of_linked () =
  let l =
    match Parser.parse_linked linked_src with
    | Ok l -> l
    | Error e -> Alcotest.failf "parse_linked: %a" Parser.pp_error e
  in
  let facts = Dsummary.of_linked l in
  (* The facts carry the module's pruned arm and main's dead store, and
     re-apply to the elaboration. *)
  check_int "one pruned arm recorded" 1 (List.length facts.Dsummary.d_pruned);
  check "dead store recorded" true
    (List.exists (fun (x, _) -> x = "z") facts.Dsummary.d_dead);
  let p = Ifc_modsys.Link.elaborate l in
  let applied = Dsummary.apply p facts in
  check_int "apply rewrites without re-walking" 0 applied.Prune.visits;
  check "elaboration pruned" true (applied.Prune.pruned <> [])

let suite =
  ( "dataflow",
    [
      test_solver_order_independent;
      Alcotest.test_case "widening terminates adversarial nest" `Quick
        test_widening_terminates;
      test_widening_terminates_random;
      test_interval_agrees_with_eval;
      Alcotest.test_case "const_bool pinned to guard semantics" `Quick
        test_const_bool_pinned;
      test_prune_sound_vs_exploration;
      Alcotest.test_case "pruning removes the seeded false positive" `Quick
        test_prune_removes_false_positive;
      Alcotest.test_case "constant guards are not double-reported" `Quick
        test_const_guard_not_double_reported;
      Alcotest.test_case "dead store reported" `Quick test_dead_store;
      Alcotest.test_case "cobegin pins stores live" `Quick
        test_dead_store_pinned_by_cobegin;
      test_witness_replays;
      Alcotest.test_case "witness for a direct leak" `Quick
        test_witness_direct_leak;
      Alcotest.test_case "witness traces a global flow" `Quick
        test_witness_global_flow;
      Alcotest.test_case "corrupted witnesses fail replay" `Quick
        test_witness_corruption_caught;
      test_dsummary_apply;
      Alcotest.test_case "linked unit facts re-apply" `Quick
        test_dsummary_of_linked;
      Alcotest.test_case "solver order independence on pinned programs"
        `Quick test_solver_order_pinned;
    ] )
