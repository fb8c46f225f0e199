(** The certification daemon: IFC-as-a-service over the batch pipeline.

    One server multiplexes any number of concurrent client connections
    onto a single {!Ifc_pipeline.Pool} of worker domains and one shared
    content-addressed {!Ifc_pipeline.Cache} — so every client benefits
    from every other client's certifications. The wire protocol is
    {!Protocol} (newline-delimited JSON, versioned; version 4 adds
    per-connection pipelining); robustness comes from {!Limits}
    (request size, connection, queue, and in-flight caps, deadlines
    with cooperative cancellation) and observability from
    {!Ifc_pipeline.Telemetry} (counters, a latency histogram, an
    optional JSONL request log, and the [stats] operation).

    The engine runs [shards] event-loop threads, each owning the
    read/write buffers of the connections dealt to it, batching NDJSON
    reads and writes and dispatching pipelined requests concurrently,
    around one classification core. {!handle} drives the same core one
    request at a time without sockets; the differential server oracle
    compares the two.

    Lifecycle: {!create} binds the sockets, {!run} serves until
    {!request_stop} (typically from a SIGINT/SIGTERM handler — it only
    flips an atomic, so it is safe in a signal handler), then drains:
    in-flight requests complete and are answered, shard threads and
    worker domains are joined, the request log is flushed and closed,
    and Unix socket files are unlinked. Calling {!request_stop} before
    {!run} makes {!run} drain at once, which is how a server driven only
    through {!handle} is released. *)

type config = {
  endpoints : Conn.endpoint list;  (** At least one. *)
  workers : int;  (** Worker domains for the job pool. *)
  shards : int;
      (** Connection-shard event loops; at least 1. The shared cache is
          striped [shards] ways. *)
  cache_capacity : int;  (** Shared LRU result cache entries. *)
  limits : Limits.t;
  log : Ifc_pipeline.Telemetry.sink option;
      (** JSONL request log; the server closes it on drain. *)
  store : Ifc_pipeline.Tier.t option;
      (** Persistent second-level result tier. When set, {!create}
          warm-starts the memory cache from the tier's hottest
          generation, cache misses consult the tier before computing,
          computed results are persisted, drain records the cache's
          final heat back to the tier, and [stats] responses gain a
          [store] object. *)
}

val default_config : config
(** No endpoints (caller must add some), 1 worker, the recommended
    domain count of connection shards, 4096 cache entries,
    {!Limits.default}, no log, no store. *)

type t

val create : config -> (t, string) result
(** Binds and listens on every endpoint (stale Unix socket files are
    unlinked first), spawns the worker pool, and ignores [SIGPIPE]
    process-wide (a dead client must be an [EPIPE], not a crash). Reads
    [IFC_PLANT] once ({!Ifc_support.Plant}) for the [stall:MS] plant;
    an unknown plant name, [shards < 1], no endpoint or no worker is an
    [Error]. *)

val port : t -> int option
(** The actual port of the first TCP endpoint — useful after binding
    port [0]. *)

val run : t -> unit
(** The accept loop. Blocks until {!request_stop}, then drains and
    releases everything. Call from the thread that should own the
    server's lifetime. A connection whose descriptor the shards'
    [select] cannot hold (at or above {!Limits.fd_setsize}) is answered
    [overloaded] and closed, like one over the connection cap. *)

val request_stop : t -> unit
(** Initiate graceful shutdown; safe to call from a signal handler or
    any thread, idempotent. *)

val stopped : t -> bool

val handle : t -> Conn.item -> string
(** One request item in, one response line out, through the same
    classification core the shards use — so embedders, tests and the
    differential oracle can drive a server without sockets. Blocks until
    a pooled job completes or its deadline passes. *)
