(** Load harness for the certification daemon.

    Spawns [clients] concurrent connections, each keeping [window]
    protocol-v4 pipelined requests in flight ([window = 1] is the
    classic serial loop), and measures end-to-end latency per request
    plus aggregate throughput. This is the engine behind [ifc loadgen]
    and the bench [load] section; the differential {!Oracle} reuses the
    same request shapes. *)

type op = Check | Cert | Lint | Ping

val op_of_string : string -> op option

val op_to_string : op -> string

type config = {
  endpoint : Conn.endpoint;
  clients : int;  (** Concurrent connections. *)
  window : int;  (** In-flight requests per connection; [1] = serial. *)
  requests : int;  (** Requests per connection. *)
  distinct : int;
      (** Distinct program variants cycled through — the cache-pressure
          knob. [1] makes every request a cache hit after the first. *)
  ops : op list;  (** Cycled per request; empty means [[Check]]. *)
  name : string;
      (** Request name sent with every job — name a load ["stall…"] to
          trip a server started with the [IFC_PLANT=stall:MS]
          fault-injection plant. *)
  retry_for : float;  (** Passed to {!Client.connect}. *)
}

val default_config : Conn.endpoint -> config
(** 8 clients, window 8, 50 requests each, 64 program variants,
    checks only, 5 s connect retry. *)

type report = {
  clients : int;
  window : int;
  requests_sent : int;
  ok : int;  (** Responses with [ok:true]. *)
  failed : int;  (** Responses with [ok:false] (any error code). *)
  protocol_errors : int;
      (** Unparseable responses, unknown correlation ids, or
          connections dropped with requests still in flight. *)
  connect_errors : int;
      (** Clients that could not connect or were refused at accept, one
          each. *)
  duration_s : float;
  throughput_rps : float;  (** Completed responses per second. *)
  codes : (string * int) list;
      (** Response disposition histogram: ["ok"] or the error code. *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val run : config -> report
(** Runs the whole load to completion (one systhread per client) and
    aggregates. Never raises on server misbehaviour — failures land in
    the report's error counters. *)

val report_fields : report -> (string * Ifc_pipeline.Telemetry.json) list
(** The report as JSON fields, ready for [Telemetry.json_to_string] or
    a bench record. *)

val program_variant : int -> string
(** The program text for variant [v] — exposed so the oracle and tests
    generate the same corpus. *)
