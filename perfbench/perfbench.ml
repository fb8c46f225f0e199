(* The end-to-end benchmark of the certification daemon.

   One run: start `ifc serve` (--jobs 1 --shards 1), drive it from this
   process over one Unix-socket connection in a closed loop, check every
   answer against a reference computed here, and print the metrics.
   With --trace 1 the run instead produces per-layer numbers: an
   untraced session for CPU per request, a logged session joined to its
   client samples, and an in-process replay of the same request lines
   (in a fresh child process, so allocation counts repeat exactly).
   README.md beside this file explains the workloads and the trace. *)

module J = Ifc_pipeline.Telemetry
module Jsonx = Ifc_server.Jsonx
module Store = Ifc_store.Store
module Cache = Ifc_pipeline.Cache
module W = Workload

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let or_die = function Ok v -> v | Error msg -> die "%s" msg

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  ifc : string;
  corpus : string;
  work : string;
  replay_out : string option;  (** Set in the replay child. *)
}

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let ifc = ref "" and corpus = ref "" and work = ref "" in
  let replay_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME check-hot | check-cold-mls | cert-store");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--ifc", Arg.Set_string ifc, "PATH the ifc executable");
      ("--corpus", Arg.Set_string corpus, "DIR the known-answer corpus");
      ("--work", Arg.Set_string work, "DIR work directory for sockets, stores and logs");
      ("--replay-out", Arg.Set_string replay_out, "FILE (internal) run the replay, write results");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --ifc PATH --corpus DIR --work DIR";
  let workload =
    match W.find !workload with Some w -> w | None -> die "unknown workload %S" !workload
  in
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  if !ifc = "" || !corpus = "" || !work = "" then die "--ifc, --corpus and --work are required";
  if !seconds <= 0. then die "--seconds must be positive";
  {
    workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    ifc = absolute !ifc;
    corpus = absolute !corpus;
    work = absolute !work;
    replay_out = (if !replay_out = "" then None else Some (absolute !replay_out));
  }

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let now_s () = Int64.to_float (J.now_ns ()) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of sorted samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      if Sys.is_directory s then copy_tree s d
      else
        Out_channel.with_open_bin d (fun oc ->
            output_string oc (In_channel.with_open_bin s In_channel.input_all)))
    (let es = Sys.readdir src in
     Array.sort compare es;
     es)

(* Digest of every file's relative path and bytes, in sorted order. *)
let tree_digest root =
  let buf = Buffer.create 4096 in
  let rec walk rel =
    let path = if rel = "" then root else Filename.concat root rel in
    let es = Sys.readdir path in
    Array.sort compare es;
    Array.iter
      (fun e ->
        let r = if rel = "" then e else Filename.concat rel e in
        let p = Filename.concat root r in
        if Sys.is_directory p then walk r
        else begin
          Buffer.add_string buf r;
          Buffer.add_char buf '\000';
          Buffer.add_string buf (Digest.to_hex (Digest.file p));
          Buffer.add_char buf '\n'
        end)
      es
  in
  walk "";
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Outcomes of one run *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let tally = { attempted = 0; failed = 0; first_failure = None }

let fail_one why =
  tally.failed <- tally.failed + 1;
  if tally.first_failure = None then tally.first_failure <- Some why

(* Verify answered samples against their requests; every request sent
   counts as attempted, and each one not answered ok with the reference
   verdict counts as failed. *)
let verify_samples (lookup : int -> W.request) samples =
  Array.iter
    (fun (s : Wire.sample) ->
      tally.attempted <- tally.attempted + 1;
      let req = lookup s.Wire.s_id in
      match Verify.check_response req s.Wire.response with
      | Ok () -> ()
      | Error why -> fail_one (Printf.sprintf "%s: %s" req.W.name why))
    samples

(* ------------------------------------------------------------------ *)
(* Daemon sessions *)

let socket = "serve.sock"
let read_timeout = 120.

type session = { daemon : Daemon.t; conn : Wire.conn; setup_s : float }

(* Spawn, poll readiness, and warm up; [setup_s] covers all three. *)
let open_session args ?store ?log warm =
  let w = args.workload in
  let t0 = now_s () in
  let daemon =
    Daemon.spawn ~ifc:args.ifc ~socket ~cache_size:w.W.cache_size ?store ?log
      ~stderr_file:"serve.stderr" ()
  in
  let fd = or_die (Daemon.connect daemon ~timeout:60.) in
  let conn = Wire.of_fd fd in
  let warm_arr = Array.of_list warm in
  let samples, _ =
    Wire.drive conn ~window:w.W.window ~timeout:read_timeout ~next:(fun k ->
        if k < Array.length warm_arr then
          let r = warm_arr.(k) in
          Some (r.W.id, r.W.line, false)
        else None)
  in
  let setup_s = now_s () -. t0 in
  ({ daemon; conn; setup_s }, samples)

let close_session s =
  Wire.close s.conn;
  Daemon.stop s.daemon

let stats_request s =
  Wire.send s.conn (Ifc_server.Protocol.stats_line ~id:(J.Int (-1)) ());
  match Wire.read_line s.conn ~timeout:read_timeout with
  | None -> J.Null
  | Some line -> ( match Jsonx.parse line with Ok j -> j | Error _ -> J.Null)

let json_float = function
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.

let path_int json path =
  let rec go j = function
    | [] -> Jsonx.int_opt j
    | k :: rest -> Option.bind (Jsonx.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0 (go json path)

(* ------------------------------------------------------------------ *)
(* The store snapshot (cert-store) *)

(* Populated once per (daemon binary, working set) in an untimed session
   of the same daemon that then serves every pool program once; every
   later session starts from a byte-identical copy. *)
let snapshot_dir args (src : W.source) =
  let working_set =
    Array.to_list src.W.pool_programs
    |> List.concat_map (fun (p : W.program) -> [ p.W.text; p.W.binding_text ])
  in
  let hex s = String.sub (Digest.to_hex s) 0 12 in
  Printf.sprintf "store-snapshot-%s-%s" (hex (Digest.file args.ifc))
    (hex (Digest.string (String.concat "\000" (src.W.w.W.name :: working_set))))

let ensure_snapshot args src =
  let dir = snapshot_dir args src in
  if not (Sys.file_exists dir) then begin
    let tmp = dir ^ ".tmp" in
    rm_rf tmp;
    let base = 500_000 in
    let reqs =
      Array.mapi
        (fun i p -> W.request_of_program src ~id:(base + i) ~fresh_req:false p)
        src.W.pool_programs
    in
    let s, samples = open_session args ~store:tmp (Array.to_list reqs) in
    close_session s;
    verify_samples (fun id -> reqs.(id - base)) samples;
    Unix.rename tmp dir
  end;
  (dir, tree_digest dir)

let restore (snapshot, digest) target =
  rm_rf target;
  copy_tree snapshot target;
  let d = tree_digest target in
  if d <> digest then die "restored store %s differs from its snapshot" target

(* ------------------------------------------------------------------ *)
(* The timed phase *)

type timed = {
  samples : Wire.sample array;
  wall_ns : int64;
  cpu_ticks : int;
  marks : (int64 * int) array;
      (** (time, daemon CPU ticks) at each window boundary, first and
          last included. *)
}

(* Fresh requests are generated before timing starts, as many as
   [budget] allows; one the daemon outruns the budget to is generated in
   the loop and counted, since that puts generation inside the measured
   loop. Pool requests are instantiated from their template in the loop,
   a single copy of the line. *)
let pregenerate src budget = Array.init budget (fun k -> W.timed_request src k)

let generated_in_loop = ref 0

(* The timed phase is cut into windows of [window_s]; the daemon's CPU
   counter is read at each boundary, just before the next send. *)
let run_timed s src pre ~seconds ~window_s ~limit =
  let window_ns = Int64.of_float (window_s *. 1e9) in
  let start = J.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let marks = ref [ (start, Daemon.cpu_ticks s.daemon) ] in
  let next_mark = ref (Int64.add start window_ns) in
  let samples, wall_ns =
    Wire.drive s.conn ~window:src.W.w.W.window ~timeout:read_timeout ~next:(fun k ->
        let now = J.now_ns () in
        if Int64.compare now !next_mark >= 0 && Int64.compare now deadline < 0 then begin
          marks := (now, Daemon.cpu_ticks s.daemon) :: !marks;
          next_mark := Int64.add !next_mark window_ns
        end;
        if k >= limit || Int64.compare now deadline >= 0 then None
        else if k < Array.length pre then Some (pre.(k).W.id, pre.(k).W.line, W.sent_alone src.W.w k)
        else begin
          if W.is_fresh src.W.w k then incr generated_in_loop;
          let r = W.timed_request src k in
          Some (r.W.id, r.W.line, W.sent_alone src.W.w k)
        end)
  in
  let last = (J.now_ns (), Daemon.cpu_ticks s.daemon) in
  let marks = Array.of_list (List.rev (last :: !marks)) in
  { samples; wall_ns; cpu_ticks = snd last - snd marks.(0); marks }

(* Per-window throughput and daemon CPU per response, for windows that
   answered at least one request. *)
let windows t =
  let n = Array.length t.marks - 1 in
  List.filter_map
    (fun i ->
      let t0, c0 = t.marks.(i) and t1, c1 = t.marks.(i + 1) in
      let answered =
        Array.fold_left
          (fun acc (sm : Wire.sample) ->
            if Int64.compare sm.Wire.recv_ns t0 >= 0 && Int64.compare sm.Wire.recv_ns t1 < 0
            then acc + 1
            else acc)
          0 t.samples
      in
      if answered = 0 then None
      else
        let secs = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
        Some
          ( float_of_int answered /. secs,
            float_of_int (c1 - c0) *. 1000. /. Daemon.clk_tck /. float_of_int answered ))
    (List.init n Fun.id)

(* How many timed requests to render up front: a generous ceiling on
   each workload's rate, so generation stays out of the loop. *)
let pregen_budget (w : W.t) seconds =
  let rate = match w.W.name with "check-cold-mls" -> 300. | "cert-store" -> 150. | _ -> 0. in
  int_of_float (Float.ceil (rate *. seconds))

let warm_lookup warm =
  let by_id = Hashtbl.create 256 in
  List.iter (fun (r : W.request) -> Hashtbl.replace by_id r.W.id r) warm;
  Hashtbl.find by_id

(* Masked responses of the warm-up and the first timed requests, in id
   order: a fixed set, so equal seeds give equal digests whatever the
   run length. *)
let digest_prefix = 128

let masked_digest warm_samples timed_samples =
  let sorted a =
    let a = Array.copy a in
    Array.sort (fun (x : Wire.sample) y -> compare x.Wire.s_id y.Wire.s_id) a;
    a
  in
  let timed = sorted timed_samples in
  let timed = Array.sub timed 0 (min digest_prefix (Array.length timed)) in
  let buf = Buffer.create 65536 in
  Array.iter
    (fun (s : Wire.sample) ->
      Buffer.add_string buf (Verify.masked s.Wire.response);
      Buffer.add_char buf '\n')
    (Array.append (sorted warm_samples) timed);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Properties of the traffic actually sent *)

let label response =
  match Str_find.index response "\"cache\":\"hit\"" 0 with Some _ -> `Hit | None -> `Miss

type properties = {
  requests : int;
  memory_hit_ratio : float;
  disk_hit_ratio : float;
  fresh_share : float;
  certifiable_share : float;
  mean_statements : float;
  mean_request_bytes : float;
  fresh_misses : int;
  fresh_count : int;
  hits : int;
}

let properties (reqs : W.request array) (samples : Wire.sample array) ~stats_before ~stats_after =
  let n = Array.length samples in
  let fn = float_of_int (max 1 n) in
  let hits = ref 0 and fresh = ref 0 and fresh_misses = ref 0 and cert = ref 0 in
  let stmts = ref 0 and bytes = ref 0 in
  Array.iteri
    (fun i (s : Wire.sample) ->
      let req = reqs.(i) in
      let hit = label s.Wire.response = `Hit in
      if hit then incr hits;
      if req.W.fresh_req then begin
        incr fresh;
        if not hit then incr fresh_misses
      end;
      (match req.W.expect with
      | W.Check_expect { analyses } -> if List.for_all (fun (_, v, _) -> v) analyses then incr cert
      | W.Cert_expect { certified; _ } -> if certified then incr cert);
      stmts := !stmts + req.W.statements;
      bytes := !bytes + String.length req.W.line + 1)
    samples;
  let delta path = path_int stats_after path - path_int stats_before path in
  let mem_hits = delta [ "stats"; "cache"; "hits" ] and mem_misses = delta [ "stats"; "cache"; "misses" ] in
  let disk_hits = delta [ "stats"; "counters"; "store.disk_hit" ] in
  let disk_misses = delta [ "stats"; "counters"; "store.disk_miss" ] in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  {
    requests = n;
    memory_hit_ratio = ratio mem_hits mem_misses;
    disk_hit_ratio = ratio disk_hits disk_misses;
    fresh_share = float_of_int !fresh /. fn;
    certifiable_share = float_of_int !cert /. fn;
    mean_statements = float_of_int !stmts /. fn;
    mean_request_bytes = float_of_int !bytes /. fn;
    fresh_misses = !fresh_misses;
    fresh_count = !fresh;
    hits = !hits;
  }

(* The workload's defining property, checked on every run. *)
let workload_invariant (w : W.t) p =
  let expected_fresh =
    (* Positions k < n with (k + 1) mod fresh_every = 0. *)
    match w.W.fresh_every with 0 -> 0 | f -> p.requests / f
  in
  match w.W.name with
  | "check-hot" when p.hits <> p.requests ->
    Error (Printf.sprintf "check-hot: %d of %d timed requests missed the cache" (p.requests - p.hits) p.requests)
  | "check-cold-mls" when p.hits <> 0 -> Error (Printf.sprintf "check-cold-mls: %d cache hits" p.hits)
  | "cert-store" when p.fresh_count <> expected_fresh || p.fresh_misses <> p.fresh_count
                      || p.requests - p.hits <> p.fresh_count ->
    Error
      (Printf.sprintf "cert-store: %d fresh of %d (fixed share gives %d), %d misses"
         p.fresh_count p.requests expected_fresh (p.requests - p.hits))
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Output *)

let metric value unit = J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]

let print_properties (w : W.t) p ~lat_ms ~digest ~setups ~whole =
  let failed_pct =
    100. *. float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  print_endline
    (J.json_to_string
       (J.Obj
          [
            ("workload", J.String w.W.name);
            ( "properties",
              J.Obj
                ([
                  ("timed_requests", J.Int p.requests);
                  ("latency_samples", J.Int (Array.length lat_ms));
                  ("latency_p90_ms", J.Float (quantile lat_ms 0.90));
                  ("latency_p99_ms", J.Float (quantile lat_ms 0.99));
                  ("latency_p999_ms", J.Float (quantile lat_ms 0.999));
                  ("latency_max_ms", J.Float (quantile lat_ms 1.0));
                  ("cache_hit_ratio", J.Float p.memory_hit_ratio);
                  ("disk_hit_ratio", J.Float p.disk_hit_ratio);
                  ("fresh_share", J.Float p.fresh_share);
                  ("certifiable_share", J.Float p.certifiable_share);
                  ("mean_statements", J.Float p.mean_statements);
                  ("mean_request_bytes", J.Float p.mean_request_bytes);
                  ("setups", J.Int setups);
                  ("generated_in_loop", J.Int !generated_in_loop);
                  ("attempted", J.Int tally.attempted);
                  ("failed", J.Int tally.failed);
                  ("failed_pct", J.Float failed_pct);
                  ("masked_response_digest", J.String digest);
                ]
                @ whole) );
          ]))

let finish ~extra_ok metrics =
  let correct = tally.failed = 0 && extra_ok = Ok () in
  (match (tally.first_failure, extra_ok) with
  | Some why, _ -> prerr_endline ("perfbench: first failure: " ^ why)
  | None, Error why -> prerr_endline ("perfbench: " ^ why)
  | None, Ok () -> ());
  print_endline
    (J.json_to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (max 1 tally.attempted));
            ("failed", J.Int tally.failed);
            ("metrics", J.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0) *)

(* Set-up is measured five times per run, three times before the timed
   phase (the third session stays up for it) and twice after, so the
   median samples the host over the whole run. *)
let setups_before = 3
let setups_after = 2

(* Throughput and CPU per request are medians over windows of a tenth of
   the timed phase (at least a second), so a burst of host contention in
   one window does not move them. *)
let window_s args = Float.max 1. (args.seconds /. 10.)

let timed_requests pre src (samples : Wire.sample array) =
  Array.map
    (fun (s : Wire.sample) ->
      let k = s.Wire.s_id - W.timed_base in
      if k < Array.length pre then pre.(k) else W.timed_request src k)
    samples

(* A session from a fresh store copy (when the workload has one), its
   warm-up verified. *)
let fresh_session args warm ~snapshot ?log () =
  let store = Option.map (fun snap -> restore snap "store"; "store") snapshot in
  let s, samples = open_session args ?store ?log warm in
  verify_samples (warm_lookup warm) samples;
  (s, samples)

let setup_once args warm ~snapshot =
  let s, _ = fresh_session args warm ~snapshot () in
  close_session s;
  s.setup_s

let phase name t0 = Printf.eprintf "perfbench: %s %.2f s\n%!" name (now_s () -. t0)

let end_to_end args src warm snapshot =
  let w = args.workload in
  let t0 = now_s () in
  let pre = pregenerate src (pregen_budget w args.seconds) in
  phase "generation" t0;
  let t0 = now_s () in
  let before = List.init (setups_before - 1) (fun _ -> setup_once args warm ~snapshot) in
  let s, warm_samples = fresh_session args warm ~snapshot () in
  phase "set-up" t0;
  let stats_before = stats_request s in
  let t = run_timed s src pre ~seconds:args.seconds ~window_s:(window_s args) ~limit:max_int in
  let stats_after = stats_request s in
  let rss_kb = Daemon.peak_rss_kb s.daemon in
  close_session s;
  let after = List.init setups_after (fun _ -> setup_once args warm ~snapshot) in
  let setup_times = before @ (s.setup_s :: after) in
  let t0 = now_s () in
  let reqs = timed_requests pre src t.samples in
  verify_samples (fun id -> reqs.(id - W.timed_base)) t.samples;
  let lat_ms =
    Array.of_list
      (List.filter_map
         (fun (sm : Wire.sample) ->
           if sm.Wire.recv_ns = 0L then None
           else Some (Int64.to_float (Wire.latency_ns sm) /. 1e6))
         (Array.to_list t.samples))
  in
  Array.sort compare lat_ms;
  let n = Array.length lat_ms in
  let wall_s = Int64.to_float t.wall_ns /. 1e9 in
  let p = properties reqs t.samples ~stats_before ~stats_after in
  let digest = masked_digest warm_samples t.samples in
  phase "verification" t0;
  print_properties w p ~lat_ms ~digest ~setups:(List.length setup_times)
    ~whole:
      [
        ("phase_throughput_rps", J.Float (float_of_int n /. wall_s));
        ( "phase_server_cpu_ms_per_req",
          J.Float (float_of_int t.cpu_ticks *. 1000. /. Daemon.clk_tck /. float_of_int (max 1 n)) );
        ("setup_s_each", J.List (List.map (fun x -> J.Float x) setup_times));
      ];
  if n < 1000 then
    Printf.eprintf "perfbench: only %d latency samples; p99 has fewer than 10 beyond it\n%!" n;
  let extra_ok = workload_invariant w p in
  let per_window = windows t in
  finish ~extra_ok
    [
      ("throughput_rps", metric (median (List.map fst per_window)) "1/s");
      ("latency_p50_ms", metric (quantile lat_ms 0.50) "ms");
      ("server_cpu_ms_per_req", metric (median (List.map snd per_window)) "ms");
      ("peak_rss_mb", metric (float_of_int rss_kb /. 1024.) "MB");
      ("setup_s", metric (median setup_times) "s");
    ]

(* ------------------------------------------------------------------ *)
(* The in-process replay (the child of a traced run) *)

let run_names = [ "core.cfm"; "cert.emit"; "core.other" ]

let replay_child args src warm out =
  let w = args.workload in
  let timed = Array.init w.W.replay_requests (fun k -> W.timed_request src k) in
  let snapshot =
    if w.W.store then
      let dir = snapshot_dir args src in
      Some (dir, tree_digest dir)
    else None
  in
  let pass ~spans =
    Trace.reset ();
    Trace.enabled := spans;
    let store =
      Option.map
        (fun snap ->
          restore snap "replay-store";
          or_die (Store.open_ "replay-store"))
        snapshot
    in
    let tier = Option.map Store.tier store in
    let env = Mirror.env ~cache_size:w.W.cache_size tier in
    let preload_ns =
      match tier with
      | None -> 0L
      | Some t ->
        let t0 = J.now_ns () in
        ignore (t.Ifc_pipeline.Tier.preload env.Mirror.cache);
        Int64.sub (J.now_ns ()) t0
    in
    (* Each request starts on an empty minor heap. Response lines carry
       timings whose digit counts vary, so without this the points where
       minor collections fall, and with them the allocation counts, would
       drift between runs by a word here and there. The collection itself
       is outside every span. *)
    let serve (r : W.request) =
      Gc.minor ();
      Trace.span ~req:r.W.id "request" (fun () -> Mirror.serve env ~req:r.W.id r.W.line)
    in
    let warm_served = List.map (fun r -> (r, serve r)) warm in
    let t1 = J.now_ns () in
    let served = Array.map serve timed in
    let timed_ns = Int64.sub (J.now_ns ()) t1 in
    (* The benchmark's own re-validation of each returned certificate,
       outside the request spans. *)
    if spans then
      Array.iteri
        (fun i (sv : Mirror.served) ->
          match (Jsonx.parse sv.Mirror.response, sv.Mirror.program) with
          | Ok json, Some program -> (
            match Jsonx.mem_string "cert" json with
            | Some text ->
              Gc.minor ();
              ignore
                (Trace.span ~req:timed.(i).W.id "cert.check" (fun () ->
                     Result.map (fun c -> Ifc_cert.Checker.check c program) (Ifc_cert.Cert.parse text)))
            | None -> ())
          | _ -> ())
        served;
    (warm_served, served, timed_ns, preload_ns, env, store)
  in
  (* Traced and plain passes alternate (traced, plain, traced, plain) so
     host drift biases neither side of the overhead; spans, counts and
     allocation come from the first pass, in a fresh process. *)
  let warm_served, served, traced_ns, preload_ns, env, store = pass ~spans:true in
  let spans = Trace.finished () in
  Trace.write_jsonl (Printf.sprintf "trace-%s-%d.jsonl" w.W.name args.seed) spans;
  let _, _, plain_ns, _, _, _ = pass ~spans:false in
  let _, _, traced_ns', _, _, _ = pass ~spans:true in
  let _, _, plain_ns', _, _, _ = pass ~spans:false in
  let traced_ns = Int64.add traced_ns traced_ns' and plain_ns = Int64.add plain_ns plain_ns' in
  (* Per-layer totals over the timed requests. *)
  let totals : (string, float * float * int) Hashtbl.t = Hashtbl.create 32 in
  let per_req_run = Hashtbl.create 1024 and per_req_total = Hashtbl.create 1024 in
  Array.iter
    (fun ((s : Trace.span), _self) ->
      if s.Trace.req >= W.timed_base then begin
        let d = Int64.to_float (Int64.sub s.Trace.end_ns s.Trace.start_ns) in
        let ns, words, calls = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt totals s.Trace.name) in
        Hashtbl.replace totals s.Trace.name (ns +. d, words +. s.Trace.words, calls + 1);
        if s.Trace.name = "request" then Hashtbl.replace per_req_total s.Trace.req d
        else if List.mem s.Trace.name run_names then Hashtbl.replace per_req_run s.Trace.req d
      end)
    spans;
  let n = float_of_int (Array.length timed) in
  let total name = match Hashtbl.find_opt totals name with Some (ns, _, _) -> ns | None -> 0. in
  let words name = match Hashtbl.find_opt totals name with Some (_, w, _) -> w | None -> 0. in
  let calls name = match Hashtbl.find_opt totals name with Some (_, _, c) -> c | None -> 0 in
  let us name = total name /. n /. 1000. and kw name = words name /. n /. 1000. in
  let layer_names =
    [ "protocol.decode"; "binding.lattice"; "lang.parse"; "lang.wellformed"; "binding.build";
      "pipeline.digest"; "pipeline.cache_find"; "pipeline.cache_add"; "store.find"; "store.add";
      "core.cfm"; "cert.emit"; "core.other"; "protocol.encode" ]
  in
  let layer_sum_us = List.fold_left (fun acc name -> acc +. us name) 0. layer_names in
  let count_served f = Array.fold_left (fun acc sv -> if f sv then acc + 1 else acc) 0 served in
  let memory = count_served (fun sv -> sv.Mirror.cached = `Memory) in
  let disk = count_served (fun sv -> sv.Mirror.cached = `Disk) in
  let computed = count_served (fun sv -> sv.Mirror.cached = `Computed) in
  let cert_sizes =
    Array.to_list served
    |> List.filter_map (fun (sv : Mirror.served) ->
           match Jsonx.parse sv.Mirror.response with
           | Ok json -> Option.map String.length (Jsonx.mem_string "cert" json)
           | Error _ -> None)
  in
  let cfm_checks =
    Array.fold_left
      (fun acc (sv : Mirror.served) ->
        if sv.Mirror.cached <> `Computed then acc
        else
          match Jsonx.parse sv.Mirror.response with
          | Ok json ->
            acc
            + List.fold_left
                (fun acc a ->
                  if Jsonx.mem_string "analysis" a = Some "cfm" then
                    acc + Option.value ~default:0 (Jsonx.mem_int "checks" a)
                  else acc)
                0 (Verify.analyses json)
          | Error _ -> acc)
      0 served
  in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let sum_bytes f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let metrics =
    [
      ("protocol.decode_us", us "protocol.decode", "us");
      ("protocol.decode_kw", kw "protocol.decode", "kw");
      ("protocol.encode_us", us "protocol.encode", "us");
      ("protocol.request_bytes", float_of_int (sum_bytes (fun (r : W.request) -> String.length r.W.line + 1) timed) /. n, "bytes");
      ( "protocol.response_bytes",
        float_of_int (sum_bytes (fun (sv : Mirror.served) -> String.length (Verify.masked sv.Mirror.response) + 1) served) /. n,
        "bytes" );
      ("lang.parse_us", us "lang.parse", "us");
      ("lang.parse_kw", kw "lang.parse", "kw");
      ("lang.wellformed_us", us "lang.wellformed", "us");
      ("lang.wellformed_kw", kw "lang.wellformed", "kw");
      ("lang.statements", float_of_int (sum_bytes (fun (r : W.request) -> r.W.statements) timed) /. n, "count");
      ("binding.build_us", us "binding.lattice" +. us "binding.build", "us");
      ("binding.build_kw", kw "binding.lattice" +. kw "binding.build", "kw");
      ("pipeline.digest_us", us "pipeline.digest", "us");
      ("pipeline.digest_kw", kw "pipeline.digest", "kw");
      ("pipeline.cache_find_us", us "pipeline.cache_find", "us");
      ("pipeline.cache_hit_ratio", float_of_int memory /. n, "ratio");
      ("pipeline.cache_evictions", float_of_int (Cache.stats env.Mirror.cache).Cache.evictions, "count");
      ("store.find_us", us "store.find", "us");
      ("store.find_kw", kw "store.find", "kw");
      ("store.add_us", us "store.add", "us");
      ("store.preload_s", Int64.to_float preload_ns /. 1e9, "s");
      ("store.hit_ratio", (if w.W.store then ratio disk computed else 0.), "ratio");
      ("store.writes", float_of_int (calls "store.add"), "count");
      ( "store.quarantined",
        (match store with Some st -> float_of_int (Store.disk_stats st).Store.quarantined | None -> 0.),
        "count" );
      ("core.cfm_us", us "core.cfm", "us");
      ("core.cfm_kw", kw "core.cfm", "kw");
      ("core.cfm_checks", float_of_int cfm_checks /. n, "count");
      ("cert.emit_us", us "cert.emit", "us");
      ("cert.emit_kw", kw "cert.emit", "kw");
      ("cert.check_us", us "cert.check", "us");
      ( "cert.bytes",
        (match cert_sizes with [] -> 0. | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)),
        "bytes" );
    ]
  in
  let entry (r : W.request) (sv : Mirror.served) =
    let total = Option.value ~default:0. (Hashtbl.find_opt per_req_total r.W.id) in
    let run = Option.value ~default:0. (Hashtbl.find_opt per_req_run r.W.id) in
    J.Obj
      [
        ("id", J.Int r.W.id);
        ("masked", J.String (Verify.masked sv.Mirror.response));
        ("computed", J.Bool (sv.Mirror.cached = `Computed));
        ("frontend_ns", J.Float (total -. run));
      ]
  in
  let json =
    J.Obj
      [
        ("metrics", J.Obj (List.map (fun (k, v, u) -> (k, metric v u)) metrics));
        ("layer_sum_us", J.Float layer_sum_us);
        ("traced_ns", J.Float (Int64.to_float traced_ns));
        ("plain_ns", J.Float (Int64.to_float plain_ns));
        ("warm", J.List (List.map (fun (r, sv) -> entry r sv) warm_served));
        ("timed", J.List (Array.to_list (Array.mapi (fun i sv -> entry timed.(i) sv) served)));
      ]
  in
  Out_channel.with_open_text out (fun oc -> output_string oc (J.json_to_string json))

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1) *)

let read_log path =
  let durations = Hashtbl.create 4096 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match Jsonx.parse line with
          | Ok json when Jsonx.mem_string "event" json = Some "request" -> (
            match (Jsonx.mem_string "name" json, Jsonx.mem_int "duration_ns" json) with
            | Some name, Some d -> Hashtbl.replace durations name (float_of_int d)
            | _ -> ())
          | _ -> ());
          go ()
      in
      go ());
  durations

let traced args src warm snapshot =
  let w = args.workload in
  let r = w.W.replay_requests and untraced_s = 0.4 *. args.seconds in
  let pre = pregenerate src (max r (pregen_budget w untraced_s)) in
  (* The logged session: the replay's request lines, each with a unique
     name, joined below to the daemon's own request log. *)
  let log = "serve.log.jsonl" in
  (try Sys.remove log with Sys_error _ -> ());
  let s, warm_b = fresh_session args warm ~snapshot ~log () in
  let tb = run_timed s src pre ~seconds:3600. ~window_s:3600. ~limit:r in
  close_session s;
  let reqs_b = timed_requests pre src tb.samples in
  verify_samples (fun id -> reqs_b.(id - W.timed_base)) tb.samples;
  (* The untraced session, right before the replay. *)
  let s, _ = fresh_session args warm ~snapshot () in
  let ta = run_timed s src pre ~seconds:untraced_s ~window_s:(window_s args) ~limit:max_int in
  close_session s;
  let reqs_a = timed_requests pre src ta.samples in
  verify_samples (fun id -> reqs_a.(id - W.timed_base)) ta.samples;
  let cpu_us_per_req = 1000. *. median (List.map snd (windows ta)) in
  (* The replay, in a fresh child process. *)
  let out = "replay.json" in
  let argv =
    [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int args.seed;
       "--seconds"; string_of_float args.seconds; "--ifc"; args.ifc; "--corpus"; args.corpus;
       "--work"; args.work; "--replay-out"; out |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  Hashtbl.replace Daemon.live pid ();
  let status = snd (Unix.waitpid [] pid) in
  Hashtbl.remove Daemon.live pid;
  if status <> Unix.WEXITED 0 then die "the replay child failed";
  let replay = or_die (Jsonx.parse (In_channel.with_open_text out In_channel.input_all)) in
  let entries key =
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun e -> Hashtbl.replace tbl (path_int e [ "id" ]) e)
      (Option.value ~default:[] (Option.bind (Jsonx.member key replay) Jsonx.list_opt));
    tbl
  in
  let replay_warm = entries "warm" and replay_timed = entries "timed" in
  (* The replay must answer exactly as the daemon did. *)
  let compare_with tbl samples =
    Array.iter
      (fun (sm : Wire.sample) ->
        tally.attempted <- tally.attempted + 1;
        match Option.bind (Hashtbl.find_opt tbl sm.Wire.s_id) (Jsonx.mem_string "masked") with
        | Some m when m = Verify.masked sm.Wire.response -> ()
        | _ -> fail_one (Printf.sprintf "r%d: replay response differs from the daemon's" sm.Wire.s_id))
      samples
  in
  compare_with replay_warm warm_b;
  compare_with replay_timed tb.samples;
  (* Join the daemon's log to the client samples. *)
  let logged = read_log log in
  let transport = ref [] and wait = ref [] in
  Array.iter
    (fun (sm : Wire.sample) ->
      let name = "r" ^ string_of_int sm.Wire.s_id in
      match (Hashtbl.find_opt logged name, sm.Wire.recv_ns) with
      | Some d, recv when recv <> 0L ->
        transport := (Int64.to_float (Wire.latency_ns sm) -. d) :: !transport;
        let e = Hashtbl.find_opt replay_timed sm.Wire.s_id in
        let computed = Option.bind e (Jsonx.mem_bool "computed") = Some true in
        if computed then begin
          let job_ns =
            match Jsonx.parse sm.Wire.response with
            | Ok json -> float_of_int (Option.value ~default:0 (Jsonx.mem_int "duration_ns" json))
            | Error _ -> 0.
          in
          let frontend = json_float (Option.bind e (Jsonx.member "frontend_ns")) in
          wait := (d -. job_ns -. frontend) :: !wait
        end
      | _ -> fail_one (Printf.sprintf "%s: missing from the daemon's log" name))
    tb.samples;
  let number key = json_float (Jsonx.member key replay) in
  let layer_sum_us = number "layer_sum_us" in
  let replay_metrics =
    match Jsonx.member "metrics" replay with Some (J.Obj fields) -> fields | _ -> []
  in
  let server =
    [
      ("server.attributed_pct", metric (100. *. layer_sum_us /. cpu_us_per_req) "%");
      ("server.remainder_us", metric (cpu_us_per_req -. layer_sum_us) "us");
      ("server.transport_us", metric (mean !transport /. 1000.) "us");
      ("pool.wait_us", metric (mean !wait /. 1000.) "us");
      ( "trace.overhead_pct",
        metric (100. *. (number "traced_ns" -. number "plain_ns") /. number "plain_ns") "%" );
    ]
  in
  Printf.printf "{\"workload\":%S,\"trace\":{\"replayed_requests\":%d,\"server_cpu_us_per_req\":%.12g,\"layer_sum_us\":%.12g,\"spans\":\"trace-%s-%d.jsonl\"}}\n"
    w.W.name r cpu_us_per_req layer_sum_us w.W.name args.seed;
  finish ~extra_ok:(Ok ()) (replay_metrics @ server)

(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  (try Unix.mkdir args.work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.chdir args.work;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  let w = args.workload in
  let src = W.source w ~seed:args.seed in
  let corpus = or_die (W.corpus_requests args.corpus ~first_id:0) in
  if corpus = [] then die "no known-answer corpus under %s" args.corpus;
  let warm = W.warmup src corpus in
  match args.replay_out with
  | Some out -> replay_child args src warm out
  | None ->
    (match Verify.self_test () with Ok () -> () | Error msg -> die "%s" msg);
    let t0 = now_s () in
    let snapshot = if w.W.store then Some (ensure_snapshot args src) else None in
    if w.W.store then phase "store snapshot" t0;
    if args.trace then traced args src warm snapshot else end_to_end args src warm snapshot
