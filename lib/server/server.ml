(* The certification daemon: multiplexes concurrent client connections
   onto one Ifc_pipeline.Pool and one shared result Cache.

   Threading model: the accept loop runs on the caller of [run] and
   deals each accepted connection to one of [shards] event-loop threads
   (Shard), which own its buffers; each request is classified here
   ([classify]) into an immediate response or a pooled job, which the
   shard submits to the (CPU-bound, domain-backed) worker pool and races
   against its deadline. Cancellation is cooperative: a request
   abandoned before a worker picks it up is never executed at all.

   Shutdown is a drain: [request_stop] (signal-handler safe — it only
   flips an atomic) stops the accept loop; each shard stops reading,
   answers what it has buffered and in flight, flushes and exits; the
   pool is then drained and joined, the request log closed, sockets
   unlinked. *)

module J = Ifc_pipeline.Telemetry
module Pool = Ifc_pipeline.Pool
module Cache = Ifc_pipeline.Cache
module Tier = Ifc_pipeline.Tier
module Job = Ifc_pipeline.Job
module Spec = Ifc_lattice.Spec
module Builtin = Ifc_lattice.Builtin
module Parser = Ifc_lang.Parser
module Wellformed = Ifc_lang.Wellformed
module Binding = Ifc_core.Binding
module Plant = Ifc_support.Plant

type config = {
  endpoints : Conn.endpoint list;
  workers : int;
  shards : int;
  cache_capacity : int;
  limits : Limits.t;
  log : J.sink option;
  store : Ifc_pipeline.Tier.t option;
}

let default_config =
  {
    endpoints = [];
    workers = 1;
    shards = max 1 (Domain.recommended_domain_count ());
    cache_capacity = 4096;
    limits = Limits.default;
    log = None;
    store = None;
  }

type t = {
  config : config;
  pool : Pool.t;
  cache : Job.analysis_result list Cache.t;
  counters : J.counters;
  latency : J.histogram;
  started : J.timer;
  stop : bool Atomic.t;
  drained : bool Atomic.t;
  conns : Limits.gauge;
  listeners : (Unix.file_descr * Conn.endpoint) list;
  tcp_port : int option;
  log : J.sink;
  stall_ms : int;
  mutable shard_rts : Shard.t list;
}

(* ------------------------------------------------------------------ *)
(* Creation *)

let bind_endpoint ep =
  match Conn.sockaddr_of_endpoint ep with
  | Error msg -> Error msg
  | Ok addr -> (
    let domain = Unix.domain_of_sockaddr addr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    try
      (match ep with
      | Conn.Unix_socket path ->
        (* A stale socket file from a dead server would fail the bind. *)
        if Sys.file_exists path then Unix.unlink path
      | Conn.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
      Unix.bind fd addr;
      (* A deep backlog: under load tests thousands of clients connect
         in a burst before the acceptor gets scheduled. *)
      Unix.listen fd 1024;
      Ok fd
    with
    | Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      Error
        (Fmt.str "cannot bind %a: %s" Conn.pp_endpoint ep (Unix.error_message err))
    | Sys_error msg ->
      (try Unix.close fd with _ -> ());
      Error (Fmt.str "cannot bind %a: %s" Conn.pp_endpoint ep msg))

let create config =
  if config.endpoints = [] then Error "server needs at least one endpoint"
  else if config.workers < 1 then Error "server needs at least one worker"
  else if config.shards < 1 then
    Error
      (Printf.sprintf "server needs at least one connection shard (got %d)"
         config.shards)
  else
    match
      Limits.check_fd_budget ~what:"max connections"
        config.limits.Limits.max_connections
    with
    | Error msg -> Error msg
    | Ok () ->
    (* Deterministic fault injection for the adversarial tests: with
       IFC_PLANT=stall:MS, any pooled job whose request name starts with
       "stall" sleeps MS milliseconds on its worker before running (and
       re-checks cancellation after the sleep), making deadline and
       backpressure behavior reproducible without a slow program. *)
    match Plant.of_env () with
    | Error msg -> Error msg
    | Ok plants ->
  begin
    (* A dead client must surface as EPIPE on write, not kill the
       process. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let rec bind_all acc = function
      | [] -> Ok (List.rev acc)
      | ep :: rest -> (
        match bind_endpoint ep with
        | Ok fd -> bind_all ((fd, ep) :: acc) rest
        | Error msg ->
          List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) acc;
          Error msg)
    in
    match bind_all [] config.endpoints with
    | Error msg -> Error msg
    | Ok listeners ->
      let tcp_port =
        List.find_map
          (fun (fd, ep) ->
            match ep with
            | Conn.Tcp _ -> (
              match Unix.getsockname fd with
              | Unix.ADDR_INET (_, port) -> Some port
              | _ -> None)
            | Conn.Unix_socket _ -> None)
          listeners
      in
      let t =
        {
          config;
          pool = Pool.create ~workers:config.workers ();
          cache =
            Cache.create ~shards:config.shards ~capacity:config.cache_capacity
              ();
          counters = J.counters ();
          latency = J.histogram ();
          started = J.start ();
          stop = Atomic.make false;
          drained = Atomic.make false;
          conns = Limits.gauge ();
          listeners;
          tcp_port;
          log = Option.value ~default:(J.null_sink ()) config.log;
          stall_ms = Plant.stall_ms plants;
          shard_rts = [];
        }
      in
      (* Warm start: resurrect the previous session's hot set so a
         restarted daemon answers its old corpus from memory. *)
      (match config.store with
      | Some tier -> J.add t.counters "store.preloaded" (tier.Tier.preload t.cache)
      | None -> ());
      Ok t
  end

let port t = t.tcp_port

let request_stop t = Atomic.set t.stop true

let stopped t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Request execution *)

let load_lattice text =
  match Builtin.find text with
  | Some l -> Ok l
  | None when String.contains text '\n' -> Spec.parse text
  | None ->
    Error
      (Printf.sprintf
         "unknown lattice %S (use two, three, four, mls, or inline spec text)"
         text)

let parse_program_text src =
  match Parser.parse_program src with
  | Error e -> Error (Fmt.str "program: %a" Parser.pp_error e)
  | Ok p -> (
    match Wellformed.errors p with
    | [] -> Ok p
    | errs ->
      Error (Fmt.str "program: %a" (Fmt.list ~sep:Fmt.comma Wellformed.pp_issue) errs))

let build_spec (req : Protocol.check_request) =
  let ( let* ) = Result.bind in
  let* lat = load_lattice req.Protocol.lattice in
  let* program = parse_program_text req.Protocol.program in
  let* binding =
    match req.Protocol.binding with
    | Some text -> Binding.of_spec lat text
    | None -> Binding.of_program lat program
  in
  let* analyses =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* a =
          Job.analysis_of_string ~ni_pairs:req.Protocol.ni_pairs
            ~ni_max_states:req.Protocol.ni_max_states name
        in
        Ok (a :: acc))
      (Ok []) req.Protocol.analyses
    |> Result.map List.rev
  in
  Ok
    (Job.make ~id:0 ~name:req.Protocol.name ~lattice:lat ~binding ~analyses
       ~self_check:req.Protocol.self_check program)

let check_fields (r : Job.result) =
  let tail =
    match r.Job.outcome with
    | Error msg -> [ ("error", J.String msg) ]
    | Ok analyses ->
      [
        ( "analyses",
          J.List
            (List.map
               (fun (ar : Job.analysis_result) ->
                 J.Obj
                   [
                     ("analysis", J.String ar.Job.analysis);
                     ("verdict", J.Bool ar.Job.verdict);
                     ("checks", J.Int ar.Job.checks);
                     ("duration_ns", J.Int (Int64.to_int ar.Job.duration_ns));
                   ])
               analyses) );
      ]
  in
  [
    ("verdict", J.String (Job.verdict_string r));
    ("cache", J.String (if r.Job.from_cache then "hit" else "miss"));
    ("digest", J.String r.Job.job_digest);
    ("duration_ns", J.Int (Int64.to_int r.Job.duration_ns));
  ]
  @ tail

(* Accounting that must run exactly once per request, at the moment its
   response is final: the latency observation and the request-log
   event. Immediate responses finalize during classification; pooled
   responses finalize on the worker (completion), in the timeout
   closure (deadline), or in the refusal closure (backpressure) —
   whichever renders the response. *)
let finalize t ~timer ~op_name ~name outcome response =
  let duration_ns = J.elapsed_ns timer in
  J.observe t.latency duration_ns;
  let log_fields =
    [ ("event", J.String "request"); ("op", J.String op_name) ]
    @ (match name with Some n -> [ ("name", J.String n) ] | None -> [])
    @ (match outcome with
      | `Ok -> [ ("ok", J.Bool true) ]
      | `Error code -> [ ("ok", J.Bool false); ("code", J.String code) ]
      | `Verdict r ->
        [
          ("ok", J.Bool true);
          ("verdict", J.String (Job.verdict_string r));
          ("cache", J.String (if r.Job.from_cache then "hit" else "miss"));
        ])
    @ [ ("duration_ns", J.Int (Int64.to_int duration_ns)) ]
  in
  J.emit t.log log_fields;
  response

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Classify one job spec against the shared cache and worker pool.
   Cache hits, store hits, and refusals answer immediately; a miss
   becomes a pooled job the connection engine races against its
   deadline. [fields] renders the success response body; check and
   cert/emit share this path (and therefore cache entries are keyed
   per-analysis-set: a check job and a cert job for the same program
   have distinct digests). *)
let classify_job t ~timer ~v id ~op_name ~fields ~job_name ~deadline spec =
  let digest = Job.digest spec in
  let name = Some job_name in
  let respond_result r =
    let response = Protocol.ok_response ~v ~id ~op:op_name (fields r) in
    finalize t ~timer ~op_name ~name (`Verdict r) response
  in
  let respond_cached cached =
    let cache_timer = J.start () in
    Dispatch.Immediate
      (respond_result
         {
           Job.job_id = 0;
           job_name;
           job_digest = digest;
           outcome = Ok cached;
           duration_ns = J.elapsed_ns cache_timer;
           from_cache = true;
         })
  in
  (* Memory first, then the persistent tier (validated on read; a disk
     hit is promoted so the next request hits memory), then compute. *)
  let consult_store () =
    match t.config.store with
    | None -> None
    | Some tier -> (
      match tier.Tier.find spec ~digest with
      | None ->
        J.incr t.counters "store.disk_miss";
        None
      | Some results ->
        J.incr t.counters "store.disk_hit";
        Cache.add t.cache digest results;
        Some results)
  in
  match Cache.find t.cache digest with
  | Some cached -> respond_cached cached
  | None ->
  match consult_store () with
  | Some cached -> respond_cached cached
  | None ->
    let limits = t.config.limits in
    if limits.Limits.max_pending > 0 && Pool.pending t.pool >= limits.Limits.max_pending
    then begin
      J.incr t.counters "errors";
      J.incr t.counters "error.overloaded";
      Dispatch.Immediate
        (finalize t ~timer ~op_name ~name (`Error "overloaded")
           (Protocol.error_response ~v ~id Protocol.Overloaded
              (Printf.sprintf "certification queue is full (%d pending jobs)"
                 limits.Limits.max_pending)))
    end
    else begin
      let deadline_ms =
        match deadline with
        | Some ms -> Some ms
        | None ->
          if limits.Limits.default_deadline_ms > 0 then
            Some limits.Limits.default_deadline_ms
          else None
      in
      let deadline_ns =
        Option.map
          (fun ms ->
            Int64.add (J.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
          deadline_ms
      in
      let cancelled = Atomic.make false in
      (* First of {completion, timeout} wins the right to render and
         account the response; the loser stands down. *)
      let finalized = Atomic.make false in
      let submit ~complete =
        let task () =
          if Atomic.get cancelled then J.incr t.counters "jobs.cancelled"
          else begin
            if t.stall_ms > 0 && has_prefix ~prefix:"stall" job_name then
              Unix.sleepf (float_of_int t.stall_ms /. 1000.);
            if Atomic.get cancelled then J.incr t.counters "jobs.cancelled"
            else begin
              let r = Job.run ~digest spec in
              (match r.Job.outcome with
              | Ok analyses ->
                Cache.add t.cache digest analyses;
                (match t.config.store with
                | Some tier -> tier.Tier.store ~digest analyses
                | None -> ())
              | Error _ -> ());
              if Atomic.compare_and_set finalized false true then
                complete (respond_result r)
            end
          end
        in
        match Pool.submit t.pool task with
        | () -> ()
        | exception Invalid_argument _ ->
          (* The pool is already draining; refuse politely. *)
          if Atomic.compare_and_set finalized false true then begin
            J.incr t.counters "errors";
            J.incr t.counters "error.overloaded";
            complete
              (finalize t ~timer ~op_name ~name (`Error "overloaded")
                 (Protocol.error_response ~v ~id Protocol.Overloaded
                    "server is shutting down"))
          end
      in
      let timeout () =
        Atomic.set cancelled true;
        if Atomic.compare_and_set finalized false true then begin
          J.incr t.counters "errors";
          J.incr t.counters "error.timeout";
          Some
            (finalize t ~timer ~op_name ~name (`Error "timeout")
               (Protocol.error_response ~v ~id Protocol.Timeout
                  (Printf.sprintf "request exceeded its %d ms deadline"
                     (Option.value ~default:0 deadline_ms))))
        end
        else None
      in
      let refuse_inflight () =
        J.incr t.counters "errors";
        J.incr t.counters "error.overloaded";
        finalize t ~timer ~op_name ~name (`Error "overloaded")
          (Protocol.error_response ~v ~id Protocol.Overloaded
             (Printf.sprintf "connection is at its %d in-flight request limit"
                limits.Limits.max_inflight))
      in
      Dispatch.Pooled
        { Dispatch.deadline_ns; cancelled; submit; timeout; refuse_inflight }
    end

(* Lint responses are check responses with the findings report spliced
   in from the job artifact, so the client sees structured findings, not
   an opaque string. *)
let lint_fields (r : Job.result) =
  let report =
    match r.Job.outcome with
    | Error _ -> []
    | Ok analyses -> (
      match List.find_opt (fun ar -> ar.Job.artifact <> None) analyses with
      | Some { Job.artifact = Some text; _ } -> (
        match Jsonx.parse text with
        | Ok json -> [ ("report", json) ]
        | Error _ -> [])
      | _ -> [])
  in
  check_fields r @ report

let bad_request t ~timer ~v id ~op_name ~name msg =
  J.incr t.counters "errors";
  J.incr t.counters "error.bad_request";
  Dispatch.Immediate
    (finalize t ~timer ~op_name ~name (`Error "bad_request")
       (Protocol.error_response ~v ~id Protocol.Bad_request msg))

let classify_lint t ~timer ~v id (req : Protocol.lint_request) =
  let name = Some req.Protocol.lint_name in
  match parse_program_text req.Protocol.lint_program with
  | Error msg -> bad_request t ~timer ~v id ~op_name:"lint" ~name msg
  | Ok program -> (
    (* Lint only reads the program; the spec's lattice and binding are
       fixed placeholders so equal programs share a cache entry. *)
    let lat = Builtin.two in
    match Binding.of_program lat program with
    | Error msg -> bad_request t ~timer ~v id ~op_name:"lint" ~name msg
    | Ok binding ->
      let spec =
        Job.make ~id:0 ~name:req.Protocol.lint_name ~lattice:lat ~binding
          ~analyses:[ Job.Lint ] program
      in
      classify_job t ~timer ~v id ~op_name:"lint" ~fields:lint_fields
        ~job_name:req.Protocol.lint_name
        ~deadline:req.Protocol.lint_deadline_ms spec)

let classify_check t ~timer ~v id (req : Protocol.check_request) =
  match build_spec req with
  | Error msg ->
    bad_request t ~timer ~v id ~op_name:"check"
      ~name:(Some req.Protocol.name) msg
  | Ok spec ->
    classify_job t ~timer ~v id ~op_name:"check" ~fields:check_fields
      ~job_name:req.Protocol.name ~deadline:req.Protocol.deadline_ms spec

(* cert/emit responses are check responses plus the certificate text
   (when one was produced) so a client can persist and later re-check
   it. *)
let cert_emit_fields (r : Job.result) =
  let cert =
    match r.Job.outcome with
    | Error _ -> []
    | Ok analyses -> (
      match
        List.find_opt (fun ar -> ar.Job.artifact <> None) analyses
      with
      | Some { Job.artifact = Some text; _ } -> [ ("cert", J.String text) ]
      | _ -> [])
  in
  (("action", J.String "emit") :: check_fields r) @ cert

let classify_cert t ~timer ~v id (req : Protocol.cert_request) =
  let name = Some req.Protocol.cert_name in
  match req.Protocol.action with
  | Protocol.Cert_emit -> (
    let ( let* ) = Result.bind in
    let spec =
      let* lat = load_lattice req.Protocol.cert_lattice in
      let* program = parse_program_text req.Protocol.cert_program in
      let* binding =
        match req.Protocol.cert_binding with
        | Some text -> Binding.of_spec lat text
        | None -> Binding.of_program lat program
      in
      Ok
        (Job.make ~id:0 ~name:req.Protocol.cert_name ~lattice:lat ~binding
           ~analyses:[ Job.Cert ] program)
    in
    match spec with
    | Error msg -> bad_request t ~timer ~v id ~op_name:"cert" ~name msg
    | Ok spec ->
      classify_job t ~timer ~v id ~op_name:"cert" ~fields:cert_emit_fields
        ~job_name:req.Protocol.cert_name ~deadline:req.Protocol.cert_deadline_ms
        spec)
  | Protocol.Cert_check cert_text -> (
    (* Validation runs inline on the classifying thread: the trusted
       checker builds no proof and carries no cacheable artifact. Its cost
       is what this thread pays: for a ~35-statement certificate on the
       two-point lattice, about 0.3 ms and 55 k words to parse and 1 ms
       and 0.54 M words to check (EXPERIMENTS.md, CERT). *)
    match parse_program_text req.Protocol.cert_program with
    | Error msg -> bad_request t ~timer ~v id ~op_name:"cert" ~name msg
    | Ok program -> (
      match Ifc_cert.Cert.parse cert_text with
      | Error e ->
        bad_request t ~timer ~v id ~op_name:"cert" ~name
          (Fmt.str "certificate: %a" Ifc_cert.Cert.pp_parse_error e)
      | Ok cert -> (
        let ok fields =
          Dispatch.Immediate
            (finalize t ~timer ~op_name:"cert" ~name `Ok
               (Protocol.ok_response ~v ~id ~op:"cert" fields))
        in
        match Ifc_cert.Checker.check cert program with
        | Ok () ->
          ok
            [
              ("action", J.String "check");
              ("valid", J.Bool true);
              ("nodes", J.Int (Ifc_cert.Cert.node_count cert));
            ]
        | Error failures ->
          let first = List.hd failures in
          ok
            [
              ("action", J.String "check");
              ("valid", J.Bool false);
              ("failures", J.Int (List.length failures));
              ( "first",
                J.Obj
                  [
                    ("path", J.String first.Ifc_cert.Checker.path);
                    ("rule", J.String first.Ifc_cert.Checker.rule);
                    ("reason", J.String first.Ifc_cert.Checker.reason);
                  ] );
            ])))

(* modsys: the version-5 compositional surface. [summary] and [refine]
   run inline — both are interface-sized, no proof construction — while
   [link] is pooled through the same cache/store path as check and cert,
   keyed by the linked digest (which covers the interface bounds the
   elaboration alone does not). *)
let parse_linked_text src =
  match Parser.parse_linked src with
  | Error e -> Error (Fmt.str "program: %a" Parser.pp_error e)
  | Ok l -> (
    match Wellformed.linked_errors l with
    | [] -> Ok l
    | errs ->
      Error (Fmt.str "program: %a" (Fmt.list ~sep:Fmt.comma Wellformed.pp_issue) errs))

let modsys_link_fields (r : Job.result) =
  let cert =
    match r.Job.outcome with
    | Error _ -> []
    | Ok analyses -> (
      match List.find_opt (fun ar -> ar.Job.artifact <> None) analyses with
      | Some { Job.artifact = Some text; _ } -> [ ("cert", J.String text) ]
      | _ -> [])
  in
  (("action", J.String "link") :: check_fields r) @ cert

let classify_modsys t ~timer ~v id (req : Protocol.modsys_request) =
  let name = Some req.Protocol.mod_name in
  let bad msg = bad_request t ~timer ~v id ~op_name:"modsys" ~name msg in
  let ok fields =
    Dispatch.Immediate
      (finalize t ~timer ~op_name:"modsys" ~name `Ok
         (Protocol.ok_response ~v ~id ~op:"modsys" fields))
  in
  let parsed =
    let ( let* ) = Result.bind in
    let* lat = load_lattice req.Protocol.mod_lattice in
    let* l = parse_linked_text req.Protocol.mod_program in
    Ok (lat, l)
  in
  match parsed with
  | Error msg -> bad msg
  | Ok (lat, l) -> (
    match req.Protocol.mod_action with
    | Protocol.Mod_summary -> (
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (m : Ifc_lang.Ast.module_unit) :: rest -> (
          match Ifc_modsys.Summary.summarize ~lattice:lat m with
          | Error e ->
            Error (Printf.sprintf "module %s: %s" m.Ifc_lang.Ast.iface.Ifc_lang.Ast.m_name e)
          | Ok s -> go (s :: acc) rest)
      in
      match go [] l.Ifc_lang.Ast.modules with
      | Error msg -> bad msg
      | Ok sums ->
        ok
          [
            ("action", J.String "summary");
            ( "modules",
              J.List
                (List.map
                   (fun (s : Ifc_cert.Linked.summary) ->
                     J.Obj
                       [
                         ("name", J.String s.Ifc_cert.Linked.m_name);
                         ("digest", J.String s.Ifc_cert.Linked.body_digest);
                         ("locals_ok", J.Bool s.Ifc_cert.Linked.locals_ok);
                         ("exports_ok", J.Bool s.Ifc_cert.Linked.exports_ok);
                         ( "constraints",
                           J.Int (List.length s.Ifc_cert.Linked.constraints) );
                         ( "summary",
                           J.String
                             (String.concat "\n"
                                (Ifc_cert.Linked.summary_to_lines s)) );
                       ])
                   sums) );
          ])
    | Protocol.Mod_refine replacement_src -> (
      match l.Ifc_lang.Ast.modules with
      | [] -> bad "refine needs a base module in \"program\""
      | base :: _ -> (
        (* The replacement is a stand-alone module: parse it as a unit
           but skip the dangling-import check — its requires are
           resolved by whatever unit it is eventually linked into. *)
        match Parser.parse_linked replacement_src with
        | Error e -> bad (Fmt.str "replacement program: %a" Parser.pp_error e)
        | Ok { Ifc_lang.Ast.modules = repl :: _; _ } -> (
          match Ifc_modsys.Refine.check_against ~lattice:lat ~base repl with
          | Error msg -> bad msg
          | Ok report ->
            ok
              [
                ("action", J.String "refine");
                ("valid", J.Bool report.Ifc_modsys.Refine.ok);
                ( "reasons",
                  J.List
                    (List.map
                       (fun r -> J.String r)
                       report.Ifc_modsys.Refine.reasons) );
              ])
        | Ok _ -> bad "replacement carries no module"))
    | Protocol.Mod_link ->
      let elaboration = Ifc_modsys.Link.elaborate l in
      (match Ifc_modsys.Link.binding ~lattice:lat l with
      | Error msg -> bad msg
      | Ok binding ->
        let spec =
          Job.make ~id:0 ~name:req.Protocol.mod_name ~lattice:lat ~binding
            ~analyses:[ Ifc_modsys.Link.job_analysis ~lattice:lat l ]
            elaboration
        in
        classify_job t ~timer ~v id ~op_name:"modsys" ~fields:modsys_link_fields
          ~job_name:req.Protocol.mod_name ~deadline:req.Protocol.mod_deadline_ms
          spec))

let stats_fields t =
  let cache_stats = Cache.stats t.cache in
  [
    ( "stats",
      J.Obj
        ([
          ("uptime_ns", J.Int (Int64.to_int (J.elapsed_ns t.started)));
          ("workers", J.Int (Pool.workers t.pool));
          ("conn_shards", J.Int t.config.shards);
          ("pending_jobs", J.Int (Pool.pending t.pool));
          ("active_connections", J.Int (Limits.value t.conns));
          ("peak_connections", J.Int (Limits.peak t.conns));
          ("max_connections", J.Int t.config.limits.Limits.max_connections);
          ("fd_setsize", J.Int Limits.fd_setsize);
          ( "counters",
            J.Obj
              (List.map (fun (k, v) -> (k, J.Int v)) (J.snapshot t.counters)) );
          ( "cache",
            J.Obj
              [
                ("hits", J.Int cache_stats.Cache.hits);
                ("misses", J.Int cache_stats.Cache.misses);
                ("evictions", J.Int cache_stats.Cache.evictions);
                ("invalidations", J.Int cache_stats.Cache.invalidations);
                ("size", J.Int cache_stats.Cache.size);
                ("capacity", J.Int cache_stats.Cache.capacity);
                ("hit_rate_pct", J.Float (Cache.hit_rate cache_stats));
              ] );
          ("latency", J.Obj (J.histogram_fields t.latency));
        ]
        @
        (* Only present when a persistent tier is configured, so the
           stats response shape is unchanged for store-less servers. *)
        match t.config.store with
        | None -> []
        | Some tier ->
          [ ("store", J.Obj (Tier.stats_fields (tier.Tier.stats ()))) ]) );
  ]

(* One request item in, one action out: either the finished (and fully
   accounted) response line, or a pooled job for the connection engine
   to submit, backpressure, and race against its deadline. *)
let classify t item =
  let timer = J.start () in
  match item with
  | `Oversized ->
    J.incr t.counters "requests";
    J.incr t.counters "errors";
    J.incr t.counters "error.oversized";
    Dispatch.Immediate
      (finalize t ~timer ~op_name:"?" ~name:None (`Error "oversized")
         (Protocol.error_response ~id:J.Null Protocol.Oversized
            (Printf.sprintf "request exceeds the %d byte limit"
               t.config.limits.Limits.max_request_bytes)))
  | `Line line -> (
    let { Protocol.v; id; op; _ } = Protocol.parse_request line in
    J.incr t.counters "requests";
    match op with
    | Error (code, msg) ->
      J.incr t.counters "errors";
      J.incr t.counters ("error." ^ Protocol.code_string code);
      Dispatch.Immediate
        (finalize t ~timer ~op_name:"?" ~name:None
           (`Error (Protocol.code_string code))
           (Protocol.error_response ~v ~id code msg))
    | Ok Protocol.Ping ->
      J.incr t.counters "op.ping";
      Dispatch.Immediate
        (finalize t ~timer ~op_name:"ping" ~name:None `Ok
           (Protocol.ok_response ~v ~id ~op:"ping" []))
    | Ok Protocol.Stats ->
      J.incr t.counters "op.stats";
      Dispatch.Immediate
        (finalize t ~timer ~op_name:"stats" ~name:None `Ok
           (Protocol.ok_response ~v ~id ~op:"stats" (stats_fields t)))
    | Ok (Protocol.Check req) ->
      J.incr t.counters "op.check";
      classify_check t ~timer ~v id req
    | Ok (Protocol.Cert req) ->
      J.incr t.counters "op.cert";
      classify_cert t ~timer ~v id req
    | Ok (Protocol.Lint req) ->
      J.incr t.counters "op.lint";
      classify_lint t ~timer ~v id req
    | Ok (Protocol.Modsys req) ->
      J.incr t.counters "op.modsys";
      classify_modsys t ~timer ~v id req)

(* One request item in, one response line out: the blocking adapter
   over [classify] used by embedders, tests and the differential
   oracle's reference transcript. The slot is an atomic written once by
   the worker; polling (1 ms) instead of a condition variable keeps the
   deadline honest even while the job is running. *)
let handle t item =
  match classify t item with
  | Dispatch.Immediate line -> line
  | Dispatch.Pooled p ->
    let slot = Atomic.make None in
    p.Dispatch.submit ~complete:(fun line -> Atomic.set slot (Some line));
    let rec wait () =
      match Atomic.get slot with
      | Some line -> line
      | None ->
        let expired =
          match p.Dispatch.deadline_ns with
          | Some d -> Int64.compare (J.now_ns ()) d > 0
          | None -> false
        in
        if expired then
          match p.Dispatch.timeout () with
          | Some line -> line
          | None -> wait () (* completion won the race; the slot is due *)
        else begin
          Thread.delay 0.001;
          wait ()
        end
    in
    wait ()

(* ------------------------------------------------------------------ *)
(* Accept loop, drain, shutdown *)

let drain t =
  if not (Atomic.exchange t.drained true) then begin
    List.iter
      (fun (fd, ep) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match ep with
        | Conn.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Conn.Tcp _ -> ())
      t.listeners;
    (* Wake each shard out of its poll, then wait for it to drain
       (buffered requests answered, in-flight jobs done, responses
       flushed) and exit. *)
    List.iter Shard.wake t.shard_rts;
    List.iter Shard.join t.shard_rts;
    t.shard_rts <- [];
    Pool.shutdown t.pool;
    (* The last writes are done: persist the cache's final recency
       ranking so the next boot preloads today's hot set. *)
    (match t.config.store with
    | Some tier -> tier.Tier.record_heat t.cache
    | None -> ());
    J.emit t.log
      [
        ("event", J.String "server_stop");
        ("uptime_ns", J.Int (Int64.to_int (J.elapsed_ns t.started)));
        ("requests", J.Int (J.count t.counters "requests"));
      ];
    J.close t.log
  end

(* Whether the shards' [select] can hold this descriptor. The daemon's
   own descriptors (standard streams, listeners, wake pipes, store reads,
   the log) move the first unpollable connection, so ask [select]
   itself: it raises EINVAL on a descriptor at or above FD_SETSIZE. *)
let pollable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* The acceptor only enforces the connection caps and deals accepted
   sockets round-robin to the shard event loops. *)
let assign_connection t shards next fd =
  let refuse message =
    J.incr t.counters "errors";
    J.incr t.counters "error.overloaded";
    ignore
      (Conn.write_line fd
         (Protocol.error_response ~id:J.Null Protocol.Overloaded message));
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  if not (pollable fd) then
    refuse
      (Printf.sprintf
         "server cannot poll another connection: select(2) holds only \
          descriptors below %d"
         Limits.fd_setsize)
  else if
    not
      (Limits.try_incr t.conns ~limit:t.config.limits.Limits.max_connections)
  then
    refuse
      (Printf.sprintf "server is at its %d connection limit"
         t.config.limits.Limits.max_connections)
  else begin
    J.incr t.counters "connections";
    let i = !next in
    next := (i + 1) mod Array.length shards;
    Shard.add shards.(i) fd
  end

let run t =
  J.emit t.log
    [
      ("event", J.String "server_start");
      ("workers", J.Int (Pool.workers t.pool));
      ( "endpoints",
        J.List
          (List.map
             (fun (_, ep) -> J.String (Fmt.str "%a" Conn.pp_endpoint ep))
             t.listeners) );
    ];
  let shards =
    Array.init t.config.shards (fun _ ->
        Shard.start ~limits:t.config.limits
          ~should_stop:(fun () -> Atomic.get t.stop)
          ~on_conn_close:(fun () -> Limits.decr t.conns)
          ~classify:(classify t) ())
  in
  t.shard_rts <- Array.to_list shards;
  let next = ref 0 in
  let fds = List.map fst t.listeners in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select fds [] [] 0.2 with
      | ready, _, _ ->
        List.iter
          (fun lfd ->
            match Unix.accept lfd with
            | cfd, _addr -> assign_connection t shards next cfd
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ -> ())
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> drain t) loop
