(* Tests for the batch certification pipeline: the domain pool, the LRU
   result cache, the JSONL telemetry sink, and — the load-bearing
   property — batch determinism: verdicts are a function of the job
   specs alone, never of the worker count, scheduling, or cache state. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Pool = Ifc_pipeline.Pool
module Cache = Ifc_pipeline.Cache
module Job = Ifc_pipeline.Job
module Batch = Ifc_pipeline.Batch
module Telemetry = Ifc_pipeline.Telemetry

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let two = Lattice.stringify Chain.two

(* ------------------------------------------------------------------ *)
(* A reproducible corpus with random bindings, like the bench uses. *)

let random_binding rng lat stmt =
  let arr = Array.of_list lat.Lattice.elements in
  Binding.make lat
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Sset.elements (Ifc_lang.Vars.all_vars stmt)))

let corpus ?(analyses = [ Job.Cfm ]) n =
  let rng = Prng.create 20260806 in
  List.init n (fun i ->
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 20)) in
      let b = random_binding rng two p.Ast.body in
      Job.make ~id:i
        ~name:(Printf.sprintf "corpus:%d" i)
        ~lattice:two ~binding:b ~analyses p)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_runs_everything () =
  let count = Atomic.make 0 in
  Pool.run ~workers:4
    (List.init 100 (fun _ () -> Atomic.incr count));
  check_int "all tasks ran" 100 (Atomic.get count)

let test_pool_survives_raising_tasks () =
  let count = Atomic.make 0 and errors = Atomic.make 0 in
  Pool.run ~workers:2
    ~on_error:(fun ~worker:_ _ -> Atomic.incr errors)
    (List.init 50 (fun i () ->
         if i mod 5 = 0 then failwith "boom" else Atomic.incr count));
  check_int "non-raising tasks all ran" 40 (Atomic.get count);
  check_int "every raise was reported" 10 (Atomic.get errors)

let test_pool_shutdown_drains_and_rejects () =
  let count = Atomic.make 0 in
  let pool = Pool.create ~workers:2 () in
  List.iter (fun task -> Pool.submit pool task)
    (List.init 20 (fun _ () -> Atomic.incr count));
  Pool.shutdown pool;
  check_int "queued tasks drained before exit" 20 (Atomic.get count);
  check "submit after shutdown raises" true
    (try
       Pool.submit pool (fun () -> ());
       false
     with Invalid_argument _ -> true);
  (* Idempotent. *)
  Pool.shutdown pool

let test_pool_rejects_zero_workers () =
  check "workers < 1 rejected" true
    (try
       ignore (Pool.create ~workers:0 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Touch "a" so "b" is the LRU victim when "c" arrives. *)
  check "a hits" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  check "b evicted" true (Cache.find c "b" = None);
  check "a survives" true (Cache.find c "a" = Some 1);
  check "c present" true (Cache.find c "c" = Some 3);
  let stats = Cache.stats c in
  check_int "one eviction" 1 stats.Cache.evictions;
  check_int "size at capacity" 2 stats.Cache.size

let test_cache_counters () =
  let c = Cache.create ~capacity:8 () in
  check "miss on empty" true (Cache.find c "k" = None);
  Cache.add c "k" 42;
  check "hit after add" true (Cache.find c "k" = Some 42);
  check "mem is counter-neutral" true (Cache.mem c "k");
  let stats = Cache.stats c in
  check_int "hits" 1 stats.Cache.hits;
  check_int "misses" 1 stats.Cache.misses;
  check "hit rate 50%" true (Float.equal (Cache.hit_rate stats) 50.)

let test_cache_capacity_one () =
  (* The degenerate boundary: every insert of a new key evicts. *)
  let c = Cache.create ~capacity:1 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check "a evicted" true (Cache.find c "a" = None);
  check "b present" true (Cache.find c "b" = Some 2);
  let stats = Cache.stats c in
  check_int "one eviction at capacity 1" 1 stats.Cache.evictions;
  check_int "size stays 1" 1 stats.Cache.size

let test_cache_exact_capacity_boundary () =
  (* Filling to exactly capacity evicts nothing; one past it evicts
     exactly the LRU entry, recency refreshed by an intervening find. *)
  let c = Cache.create ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  check_int "no eviction at exact capacity" 0 (Cache.stats c).Cache.evictions;
  check "a hits" true (Cache.find c "a" = Some 1);
  Cache.add c "d" 4;
  check "b was the LRU victim" true (Cache.find c "b" = None);
  check "a survives (refreshed)" true (Cache.find c "a" = Some 1);
  check "c survives" true (Cache.find c "c" = Some 3);
  check "d present" true (Cache.find c "d" = Some 4);
  check_int "exactly one eviction" 1 (Cache.stats c).Cache.evictions

let test_cache_reinsert_refreshes_recency () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Re-inserting "a" must refresh it, making "b" the victim. *)
  Cache.add c "a" 10;
  Cache.add c "c" 3;
  check "b evicted after a's re-insert" true (Cache.find c "b" = None);
  check "a survives with new value" true (Cache.find c "a" = Some 10);
  check "c present" true (Cache.find c "c" = Some 3)

let test_cache_mem_is_recency_neutral () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* mem must NOT refresh: "a" stays the LRU victim. *)
  check "mem sees a" true (Cache.mem c "a");
  Cache.add c "c" 3;
  check "a still evicted despite mem" true (Cache.find c "a" = None);
  check "b survives" true (Cache.find c "b" = Some 2)

let test_cache_fold_lru_order () =
  let c = Cache.create ~capacity:8 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  (* Touch "a": recency becomes a, c, b. *)
  check "a hits" true (Cache.find c "a" = Some 1);
  let keys = List.rev (Cache.fold c (fun acc k _ -> k :: acc) []) in
  Alcotest.(check (list string)) "MRU-first order" [ "a"; "c"; "b" ] keys;
  let before = Cache.stats c in
  ignore (Cache.fold c (fun acc _ _ -> acc + 1) 0);
  let after = Cache.stats c in
  check_int "fold is hit-neutral" before.Cache.hits after.Cache.hits;
  check_int "fold is miss-neutral" before.Cache.misses after.Cache.misses;
  (* Recency-neutral too: the fold must not have bumped "b". *)
  let c2 = Cache.create ~capacity:2 () in
  Cache.add c2 "x" 1;
  Cache.add c2 "y" 2;
  ignore (Cache.fold c2 (fun acc k _ -> k :: acc) []);
  Cache.add c2 "z" 3;
  check "x still the LRU victim after fold" true (Cache.find c2 "x" = None)

let test_cache_invalidation_vs_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check "remove reports presence" true (Cache.remove c "a");
  check "remove of absent is false" false (Cache.remove c "nope");
  check "a gone" true (Cache.find c "a" = None);
  Cache.add c "c" 3;
  Cache.add c "d" 4;
  (* b, c, d through capacity 2: exactly one capacity eviction. *)
  let stats = Cache.stats c in
  check_int "one invalidation" 1 stats.Cache.invalidations;
  check_int "one eviction" 1 stats.Cache.evictions;
  check_int "size" 2 stats.Cache.size

let test_cache_striped_semantics () =
  (* With [shards > 1] the cache is an array of independent LRU
     stripes. Lookups still route by key, stats sum every stripe, and
     total size never exceeds total capacity. *)
  let c = Cache.create ~shards:4 ~capacity:64 () in
  check_int "shards recorded" 4 (Cache.shards c);
  check_int "single-stripe default" 1 (Cache.shards (Cache.create ()));
  for i = 0 to 99 do
    Cache.add c ("k" ^ string_of_int i) i
  done;
  for i = 0 to 99 do
    (* Re-add duplicates: replaces in place, never double-counts. *)
    Cache.add c ("k" ^ string_of_int i) i
  done;
  let found = ref 0 in
  for i = 0 to 99 do
    match Cache.find c ("k" ^ string_of_int i) with
    | Some v ->
      incr found;
      check "value routed to the right stripe" true (v = i)
    | None -> ()
  done;
  let stats = Cache.stats c in
  check_int "hits + misses = lookups" 100 (stats.Cache.hits + stats.Cache.misses);
  check_int "hits are the found ones" !found stats.Cache.hits;
  check "size bounded by capacity" true (stats.Cache.size <= 64);
  check "evictions happened" true (stats.Cache.evictions > 0);
  (* fold visits exactly the resident entries. *)
  check_int "fold covers residents" stats.Cache.size
    (Cache.fold c (fun acc _ _ -> acc + 1) 0);
  (* remove routes like find. *)
  let resident_key =
    Cache.fold c (fun acc k _ -> match acc with Some _ -> acc | None -> Some k)
      None
  in
  (match resident_key with
  | Some k ->
    check "remove routed" true (Cache.remove c k);
    check "removed gone" true (Cache.find c k = None)
  | None -> Alcotest.fail "striped cache unexpectedly empty");
  Cache.clear c;
  check_int "clear empties every stripe" 0 (Cache.stats c).Cache.size

let test_cache_striped_concurrent () =
  (* Hammer all stripes from the pool: totals must still reconcile. *)
  let c = Cache.create ~shards:4 ~capacity:128 () in
  Pool.run ~workers:4
    (List.init 400 (fun i () ->
         let key = "k" ^ string_of_int (i mod 64) in
         match Cache.find c key with
         | Some _ -> ()
         | None -> Cache.add c key i));
  let stats = Cache.stats c in
  check_int "lookups all accounted" 400 (stats.Cache.hits + stats.Cache.misses);
  check "at most 64 distinct keys" true (stats.Cache.size <= 64)

let test_cache_concurrent_access () =
  let c = Cache.create ~capacity:64 () in
  Pool.run ~workers:4
    (List.init 200 (fun i () ->
         let key = "k" ^ string_of_int (i mod 32) in
         match Cache.find c key with
         | Some _ -> ()
         | None -> Cache.add c key i));
  let stats = Cache.stats c in
  check_int "lookups all accounted" 200 (stats.Cache.hits + stats.Cache.misses);
  check "no eviction below capacity" true (stats.Cache.evictions = 0);
  check "at most 32 distinct keys" true (stats.Cache.size <= 32)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_json_escaping () =
  let open Telemetry in
  Alcotest.(check string)
    "escaping" {|{"a b":"line\nbreak \"q\" \\ tab\t","n":[1,true,null]}|}
    (json_to_string
       (Obj
          [
            ("a b", String "line\nbreak \"q\" \\ tab\t");
            ("n", List [ Int 1; Bool true; Null ]);
          ]))

let test_telemetry_sink_jsonl () =
  let path = Filename.temp_file "ifc_pipeline" ".jsonl" in
  let sink = Telemetry.open_sink path in
  Telemetry.emit sink [ ("event", Telemetry.String "one"); ("n", Telemetry.Int 1) ];
  Telemetry.emit sink [ ("event", Telemetry.String "two") ];
  Telemetry.close sink;
  Telemetry.emit sink [ ("event", Telemetry.String "dropped") ];
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  check_int "two events, close is final" 2 (List.length lines);
  List.iteri
    (fun i line ->
      check "object per line" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      check "sequence numbers in order" true
        (String.length line > 8
        && String.sub line 0 8 = Printf.sprintf {|{"seq":%d|} i))
    lines

let test_telemetry_counters () =
  let c = Telemetry.counters () in
  Pool.run ~workers:4 (List.init 100 (fun _ () -> Telemetry.incr c "jobs"));
  Telemetry.add c "other" 5;
  check_int "atomic under contention" 100 (Telemetry.count c "jobs");
  check_int "missing counter is 0" 0 (Telemetry.count c "nope");
  Alcotest.(check (list (pair string int)))
    "snapshot sorted" [ ("jobs", 100); ("other", 5) ] (Telemetry.snapshot c)

(* ------------------------------------------------------------------ *)
(* Batch determinism: the tentpole property. *)

let sequential_verdicts specs =
  List.map
    (fun spec -> Cfm.certified spec.Job.binding spec.Job.program.Ast.body)
    specs

let batch_verdicts summary =
  List.map
    (fun r -> match Job.verdict r with `Pass -> true | _ -> false)
    summary.Batch.results

let test_batch_matches_sequential_cfm () =
  let specs = corpus 40 in
  let expected = sequential_verdicts specs in
  List.iter
    (fun jobs ->
      let summary = Batch.run ~jobs specs in
      check_int
        (Printf.sprintf "all %d jobs completed at jobs=%d" 40 jobs)
        40 summary.Batch.total;
      check_int "no errors" 0 summary.Batch.errored;
      Alcotest.(check (list bool))
        (Printf.sprintf "verdicts at jobs=%d equal sequential Cfm.certify" jobs)
        expected (batch_verdicts summary))
    [ 1; 2; 4 ]

let test_batch_results_in_spec_order () =
  let specs = corpus 25 in
  let summary = Batch.run ~jobs:4 specs in
  List.iteri
    (fun i r ->
      check_int "result ids are dense and ordered" i r.Job.job_id;
      Alcotest.(check string)
        "names preserved"
        (Printf.sprintf "corpus:%d" i)
        r.Job.job_name)
    summary.Batch.results

let test_batch_warm_cache_all_hits () =
  let specs = corpus 30 in
  let cache = Cache.create ~capacity:64 () in
  let cold = Batch.run ~jobs:2 ~cache specs in
  check_int "cold run misses everything" 30 cold.Batch.cache_misses;
  check_int "cold run hits nothing" 0 cold.Batch.cache_hits;
  let warm = Batch.run ~jobs:2 ~cache specs in
  check_int "warm run hits everything" 30 warm.Batch.cache_hits;
  check_int "warm run misses nothing" 0 warm.Batch.cache_misses;
  check "warm results all marked cached" true
    (List.for_all (fun r -> r.Job.from_cache) warm.Batch.results);
  Alcotest.(check (list bool))
    "warm verdicts identical" (batch_verdicts cold) (batch_verdicts warm)

let test_batch_poisoned_job_is_isolated () =
  let poison =
    Job.Custom ("poison", fun _ _ -> failwith "injected analysis fault")
  in
  let specs =
    List.mapi
      (fun i spec ->
        if i = 3 then { spec with Job.analyses = [ poison ] } else spec)
      (corpus 10)
  in
  List.iter
    (fun jobs ->
      let summary = Batch.run ~jobs specs in
      check_int "every job reported" 10 summary.Batch.total;
      check_int "exactly one error" 1 summary.Batch.errored;
      let poisoned = List.nth summary.Batch.results 3 in
      check "the poisoned job carries the message" true
        (match poisoned.Job.outcome with
        | Error msg ->
          (* Printexc renders Failure as Failure("..."). *)
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          contains msg "injected analysis fault"
        | Ok _ -> false);
      List.iteri
        (fun i r ->
          if i <> 3 then
            check "other jobs unaffected" true
              (match r.Job.outcome with Ok _ -> true | Error _ -> false))
        summary.Batch.results)
    [ 1; 2; 4 ]

let test_batch_error_not_cached () =
  let poison = Job.Custom ("poison", fun _ _ -> failwith "boom") in
  let specs =
    List.map (fun s -> { s with Job.analyses = [ poison ] }) (corpus 4)
  in
  let cache = Cache.create () in
  let first = Batch.run ~cache specs in
  check_int "all errored" 4 first.Batch.errored;
  let second = Batch.run ~cache specs in
  check_int "errors never populate the cache" 0 second.Batch.cache_hits

let test_batch_digest_sensitivity () =
  let specs = corpus 1 in
  let spec = List.hd specs in
  let d = Job.digest spec in
  check "digest stable" true (String.equal d (Job.digest spec));
  check "digest differs on self_check" false
    (String.equal d (Job.digest { spec with Job.self_check = true }));
  check "digest differs on analyses" false
    (String.equal d (Job.digest { spec with Job.analyses = [ Job.Denning ] }));
  check "digest ignores id and name" true
    (String.equal d (Job.digest { spec with Job.id = 99; Job.name = "other" }))

(* An mls job's key, pinned: the rendered lattice is part of the key,
   and response digests and store object names may move only with the
   store's entry format. Its certificate's lattice lines hold class
   names such as secret:{NUC,EUR}, which must re-parse for the cert
   analysis to pass. *)
let test_mls_job_pinned () =
  let mls = Option.get (Ifc_lattice.Builtin.find "mls") in
  let program =
    Result.get_ok
      (Ifc_lang.Parser.parse_program
         "var x, y, z : integer;\nbegin x := 0; y := x; z := x + y end")
  in
  let binding =
    Binding.make mls
      [
        ("x", "confidential:{NUC}");
        ("y", "secret:{NUC,EUR}");
        ("z", "topsecret:{NUC,EUR,ASI}");
      ]
  in
  let spec = Job.make ~id:0 ~name:"pin" ~lattice:mls ~binding program in
  Alcotest.(check string) "digest" "61e924515156cd891523739c8ffaaecf" (Job.digest spec);
  let r = Job.run { spec with Job.analyses = [ Job.Cert ] } in
  Alcotest.(check string) "cert verdict" "pass" (Job.verdict_string r)

(* ------------------------------------------------------------------ *)
(* The job key *)

(* The same program laid out otherwise: comments of both forms around
   and between the lines, every space doubled, every line indented. *)
let respaced text =
  let b = Buffer.create (2 * String.length text) in
  Buffer.add_string b "-- a leading comment\n(* and (* a nested *) one *)\n";
  String.iter
    (function
      | ' ' -> Buffer.add_string b "  "
      | '\n' -> Buffer.add_string b " (* eol *)\n\t"
      | c -> Buffer.add_char b c)
    text;
  Buffer.add_string b "\n-- trailing\n";
  Buffer.contents b

let key_property name =
  let scheme name = Option.get (Ifc_lattice.Builtin.find name) in
  let lattice = scheme name in
  let other_lattice = scheme (if name = "mls" then "two" else "mls") in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:(Printf.sprintf "job key is structural and covers every input (%s)" name)
       (Qcheck_arbitrary.bound_program ~max_size:25 lattice)
       (fun bp ->
         let program = bp.Qcheck_arbitrary.prog in
         let binding = Qcheck_arbitrary.binding_of bp in
         let spec = Job.make ~id:0 ~name:"key" ~lattice ~binding program in
         let key = Job.digest spec in
         let text = Ifc_lang.Pretty.program_to_string program in
         let reparsed src =
           match Ifc_lang.Parser.parse_program src with
           | Ok p -> Job.digest { spec with Job.program = p }
           | Error e -> QCheck.Test.fail_reportf "%a" Ifc_lang.Parser.pp_error e
         in
         let entries = Binding.bindings binding in
         let top = lattice.Lattice.top and bottom = lattice.Lattice.bottom in
         let rebound =
           match entries with
           | (v, c) :: rest ->
             Binding.make lattice
               ((v, if lattice.Lattice.equal c top then bottom else top) :: rest)
           | [] -> Binding.make lattice [ ("fresh", top) ]
         in
         let differs spec' = not (String.equal key (Job.digest spec')) in
         String.equal key (reparsed text)
         && String.equal key (reparsed (respaced text))
         && differs { spec with Job.binding = rebound }
         && differs
              { spec with Job.binding = Binding.make lattice ~default:top entries }
         && differs { spec with Job.lattice = other_lattice }
         && differs { spec with Job.analyses = [ Job.Cfm; Job.Cert ] }
         && differs { spec with Job.analyses = [] }
         && differs { spec with Job.self_check = true }))

(* Jobs and their near-miss siblings through one shared cache answer
   exactly what a fresh run of each answers: no two of them may share an
   entry unless their verdicts must agree. *)
let test_shared_cache_differential () =
  let y_from_x = Result.get_ok (Ifc_lang.Parser.parse_program "var x, y : integer;\nbegin y := x end") in
  let by_default default =
    Job.make ~id:0 ~name:"y := x" ~lattice:two
      ~binding:(Binding.make two ~default [ ("y", "low") ])
      y_from_x
  in
  let siblings (spec : Job.spec) =
    let entries = Binding.bindings spec.Job.binding in
    [
      spec;
      { spec with Job.binding = Binding.make two ~default:"high" entries };
      { spec with Job.binding = Binding.make two ~default:"high" (List.tl entries) };
      { spec with Job.self_check = true };
      { spec with Job.analyses = [ Job.Cfm; Job.Cert ] };
    ]
  in
  let specs =
    [ by_default "low"; by_default "high" ]
    @ List.concat_map siblings
        (List.filter
           (fun s -> Binding.bindings s.Job.binding <> [])
           (corpus ~analyses:[ Job.Cfm; Job.Denning ] 16))
    |> List.mapi (fun id s -> { s with Job.id })
  in
  let answer (r : Job.result) =
    match r.Job.outcome with
    | Error e -> "error " ^ e
    | Ok results ->
      String.concat ";"
        (List.map
           (fun (a : Job.analysis_result) ->
             Printf.sprintf "%s %b %d %s" a.Job.analysis a.Job.verdict a.Job.checks
               (Option.value a.Job.artifact ~default:"-"))
           results)
  in
  let fresh = List.map (fun s -> answer (Job.run s)) specs in
  let cache = Cache.create () in
  List.iter
    (fun pass ->
      let summary = Batch.run ~cache specs in
      List.iter2
        (fun expected r ->
          Alcotest.(check string)
            (Printf.sprintf "%s pass, job %d (%s)" pass r.Job.job_id r.Job.job_name)
            expected (answer r))
        fresh summary.Batch.results)
    [ "first"; "second" ];
  check "the default class decides y := x" false
    (String.equal (List.nth fresh 0) (List.nth fresh 1))

let test_batch_multi_analysis_jsonl () =
  let path = Filename.temp_file "ifc_batch" ".jsonl" in
  let sink = Telemetry.open_sink path in
  let specs = corpus ~analyses:[ Job.Denning; Job.Cfm; Job.Prove ] 12 in
  let summary = Batch.run ~jobs:2 ~sink specs in
  Telemetry.close sink;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  check_int "one event per job plus a summary" 13 (List.length lines);
  check_int "summary totals add up" 12
    (summary.Batch.passed + summary.Batch.failed + summary.Batch.errored);
  (* CFM ⊆ Denning on every job: per-analysis tallies must respect it. *)
  let passes name =
    List.assoc_opt name
      (List.map (fun (n, p, _) -> (n, p)) summary.Batch.per_analysis)
    |> Option.value ~default:0
  in
  check "cfm passes <= denning passes" true (passes "cfm" <= passes "denning");
  (* Theorems 1/2: prove agrees with cfm exactly. *)
  check_int "prove agrees with cfm" (passes "cfm") (passes "prove")

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "pool runs everything" `Quick test_pool_runs_everything;
      Alcotest.test_case "pool survives raising tasks" `Quick
        test_pool_survives_raising_tasks;
      Alcotest.test_case "pool shutdown drains+rejects" `Quick
        test_pool_shutdown_drains_and_rejects;
      Alcotest.test_case "pool rejects zero workers" `Quick
        test_pool_rejects_zero_workers;
      Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
      Alcotest.test_case "cache counters" `Quick test_cache_counters;
      Alcotest.test_case "cache capacity one" `Quick test_cache_capacity_one;
      Alcotest.test_case "cache exact capacity boundary" `Quick
        test_cache_exact_capacity_boundary;
      Alcotest.test_case "cache re-insert refreshes recency" `Quick
        test_cache_reinsert_refreshes_recency;
      Alcotest.test_case "cache mem is recency-neutral" `Quick
        test_cache_mem_is_recency_neutral;
      Alcotest.test_case "cache fold is MRU-first and neutral" `Quick
        test_cache_fold_lru_order;
      Alcotest.test_case "cache invalidation vs eviction split" `Quick
        test_cache_invalidation_vs_eviction;
      Alcotest.test_case "cache concurrent access" `Quick
        test_cache_concurrent_access;
      Alcotest.test_case "cache striped semantics" `Quick
        test_cache_striped_semantics;
      Alcotest.test_case "cache striped concurrent" `Quick
        test_cache_striped_concurrent;
      Alcotest.test_case "telemetry json escaping" `Quick
        test_telemetry_json_escaping;
      Alcotest.test_case "telemetry sink jsonl" `Quick test_telemetry_sink_jsonl;
      Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
      Alcotest.test_case "batch = sequential cfm at jobs 1/2/4" `Quick
        test_batch_matches_sequential_cfm;
      Alcotest.test_case "batch results in spec order" `Quick
        test_batch_results_in_spec_order;
      Alcotest.test_case "batch warm cache all hits" `Quick
        test_batch_warm_cache_all_hits;
      Alcotest.test_case "batch poisoned job isolated" `Quick
        test_batch_poisoned_job_is_isolated;
      Alcotest.test_case "batch errors not cached" `Quick
        test_batch_error_not_cached;
      Alcotest.test_case "job digest sensitivity" `Quick
        test_batch_digest_sensitivity;
      Alcotest.test_case "mls job digest and certificate" `Quick test_mls_job_pinned;
      key_property "two";
      key_property "mls";
      Alcotest.test_case "shared cache answers as fresh runs" `Quick
        test_shared_cache_differential;
      Alcotest.test_case "batch multi-analysis + jsonl" `Quick
        test_batch_multi_analysis_jsonl;
    ] )
