(* Reusable load harness: many concurrent clients, protocol-v4
   pipelining, end-to-end latency histogram.

   One systhread per client connection keeps a window of in-flight
   requests open (write until [window] outstanding, then read one
   response and refill), correlating responses to requests by id —
   exactly the traffic shape the sharded engine is built for. Setting
   [window = 1] degrades to the classic serial request/response
   loop. *)

module J = Ifc_pipeline.Telemetry

type op = Check | Cert | Lint | Ping

let op_of_string = function
  | "check" -> Some Check
  | "cert" -> Some Cert
  | "lint" -> Some Lint
  | "ping" -> Some Ping
  | _ -> None

let op_to_string = function
  | Check -> "check"
  | Cert -> "cert"
  | Lint -> "lint"
  | Ping -> "ping"

type config = {
  endpoint : Conn.endpoint;
  clients : int;
  window : int;
  requests : int;
  distinct : int;
  ops : op list;
  name : string;
  retry_for : float;
}

let default_config endpoint =
  {
    endpoint;
    clients = 8;
    window = 8;
    requests = 50;
    distinct = 64;
    ops = [ Check ];
    name = "load";
    retry_for = 5.;
  }

type report = {
  clients : int;
  window : int;
  requests_sent : int;
  ok : int;
  failed : int;
  protocol_errors : int;
  connect_errors : int;
  duration_s : float;
  throughput_rps : float;
  codes : (string * int) list;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* Distinct integer literals defeat the result cache just enough to keep
   the worker pool honest; [distinct] bounds the variant count so longer
   runs still measure the cache-hit path too. *)
let program_variant v =
  Printf.sprintf "var x, y : integer;\nbegin x := %d; y := x end" (abs v)

let request_line ~id ~name ~variant op =
  let id = J.Int id in
  match op with
  | Check -> Protocol.check_line ~id ~name (program_variant variant)
  | Cert -> Protocol.cert_emit_line ~id ~name (program_variant variant)
  | Lint -> Protocol.lint_line ~id ~name (program_variant variant)
  | Ping -> Protocol.ping_line ~id ()

type shared = {
  mutex : Mutex.t;
  latency : J.histogram;
  mutable s_ok : int;
  mutable s_failed : int;
  mutable s_protocol_errors : int;
  mutable s_connect_errors : int;
  mutable s_sent : int;
  mutable s_codes : (string, int) Hashtbl.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let record_code shared code =
  match Hashtbl.find_opt shared.s_codes code with
  | Some n -> Hashtbl.replace shared.s_codes code (n + 1)
  | None -> Hashtbl.add shared.s_codes code 1

(* One client's whole conversation. [pending] maps in-flight ids to
   their send timestamps; a response for an unknown id, an unparseable
   line, or early EOF counts as a protocol error. A connection refused
   at accept gets a null-id [overloaded] line and is closed unread, so
   a failed write, that line or EOF before any response is one connect
   error instead. *)
let client_loop cfg shared client_index =
  match Client.connect ~retry_for:cfg.retry_for cfg.endpoint with
  | Error _ ->
    with_lock shared.mutex (fun () ->
        shared.s_connect_errors <- shared.s_connect_errors + 1)
  | Ok conn ->
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let fd = Client.fd conn and reader = Client.reader conn in
    let ops = Array.of_list (if cfg.ops = [] then [ Check ] else cfg.ops) in
    let pending : (int, int64) Hashtbl.t = Hashtbl.create 16 in
    let sent = ref 0 and received = ref 0 and dead = ref false in
    let refused = ref false in
    let refuse () =
      refused := true;
      dead := true
    in
    let ok = ref 0 and failed = ref 0 and proto = ref 0 in
    let codes = Hashtbl.create 8 in
    let bump tbl code =
      match Hashtbl.find_opt tbl code with
      | Some n -> Hashtbl.replace tbl code (n + 1)
      | None -> Hashtbl.add tbl code 1
    in
    let send_one () =
      let seq = !sent in
      let id = (client_index * 10_000_000) + seq in
      let variant = ((client_index * cfg.requests) + seq) mod max 1 cfg.distinct in
      let op = ops.(seq mod Array.length ops) in
      let line = request_line ~id ~name:cfg.name ~variant op in
      if Conn.write_line fd line then begin
        Hashtbl.replace pending id (J.now_ns ());
        incr sent
      end
      else if !received = 0 then refuse ()
      else dead := true
    in
    let recv_one () =
      match Conn.next_line reader with
      | `Line l ->
        incr received;
        (match Jsonx.parse l with
        | Error _ -> incr proto
        | Ok json -> (
          match Option.bind (Jsonx.member "id" json) Jsonx.int_opt with
          | None -> (
            match Protocol.response_error json with
            | Some ("overloaded", _) when !received = 1 -> refuse ()
            | _ -> incr proto)
          | Some id -> (
            match Hashtbl.find_opt pending id with
            | None -> incr proto
            | Some started ->
              Hashtbl.remove pending id;
              J.observe shared.latency (Int64.sub (J.now_ns ()) started);
              if Protocol.response_ok json then begin
                incr ok;
                bump codes "ok"
              end
              else begin
                incr failed;
                bump codes
                  (match Protocol.response_error json with
                  | Some (code, _) -> code
                  | None -> "unknown")
              end)))
      | `Eof when !received = 0 -> refuse ()
      | `Eof | `Oversized ->
        if !received < !sent then incr proto;
        dead := true
    in
    while (not !dead) && !received < cfg.requests do
      while
        (not !dead) && !sent < cfg.requests
        && Hashtbl.length pending < max 1 cfg.window
      do
        send_one ()
      done;
      if not !dead then recv_one ()
    done;
    with_lock shared.mutex (fun () ->
        if !refused then shared.s_connect_errors <- shared.s_connect_errors + 1;
        shared.s_ok <- shared.s_ok + !ok;
        shared.s_failed <- shared.s_failed + !failed;
        shared.s_protocol_errors <- shared.s_protocol_errors + !proto;
        shared.s_sent <- shared.s_sent + !sent;
        Hashtbl.iter
          (fun code n ->
            for _ = 1 to n do
              record_code shared code
            done)
          codes)

let run (cfg : config) =
  let shared =
    {
      mutex = Mutex.create ();
      latency = J.histogram ();
      s_ok = 0;
      s_failed = 0;
      s_protocol_errors = 0;
      s_connect_errors = 0;
      s_sent = 0;
      s_codes = Hashtbl.create 8;
    }
  in
  let started = J.now_ns () in
  let threads =
    List.init (max 1 cfg.clients) (fun i ->
        Thread.create (fun () -> client_loop cfg shared i) ())
  in
  List.iter Thread.join threads;
  let duration_s =
    Int64.to_float (Int64.sub (J.now_ns ()) started) /. 1e9
  in
  let completed = shared.s_ok + shared.s_failed in
  let q p = J.ns_to_ms (J.quantile_ns shared.latency p) in
  let codes =
    Hashtbl.fold (fun code n acc -> (code, n) :: acc) shared.s_codes []
    |> List.sort compare
  in
  let mean_ms =
    match List.assoc_opt "mean_ns" (J.histogram_fields shared.latency) with
    | Some (J.Float ns) -> ns /. 1e6
    | _ -> 0.
  in
  {
    clients = cfg.clients;
    window = cfg.window;
    requests_sent = shared.s_sent;
    ok = shared.s_ok;
    failed = shared.s_failed;
    protocol_errors = shared.s_protocol_errors;
    connect_errors = shared.s_connect_errors;
    duration_s;
    throughput_rps =
      (if duration_s > 0. then float_of_int completed /. duration_s else 0.);
    codes;
    mean_ms;
    p50_ms = q 0.50;
    p95_ms = q 0.95;
    p99_ms = q 0.99;
    max_ms =
      (match List.assoc_opt "max_ns" (J.histogram_fields shared.latency) with
      | Some (J.Int ns) -> J.ns_to_ms (Int64.of_int ns)
      | _ -> 0.);
  }

let report_fields r =
  [
    ("clients", J.Int r.clients);
    ("window", J.Int r.window);
    ("requests_sent", J.Int r.requests_sent);
    ("ok", J.Int r.ok);
    ("failed", J.Int r.failed);
    ("protocol_errors", J.Int r.protocol_errors);
    ("connect_errors", J.Int r.connect_errors);
    ("duration_s", J.Float r.duration_s);
    ("throughput_rps", J.Float r.throughput_rps);
    ("mean_ms", J.Float r.mean_ms);
    ("p50_ms", J.Float r.p50_ms);
    ("p95_ms", J.Float r.p95_ms);
    ("p99_ms", J.Float r.p99_ms);
    ("max_ms", J.Float r.max_ms);
    ( "codes",
      J.Obj (List.map (fun (code, n) -> (code, J.Int n)) r.codes) );
  ]
