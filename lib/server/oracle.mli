(** Differential server oracle.

    Builds a reference transcript of one seeded request stream by
    sending every line through {!Server.handle}, in order, on an
    in-process server that never accepts a connection; replays the same
    stream pipelined over several connections against a running server;
    and demands byte-identical responses per correlation id after
    stripping the two legitimately nondeterministic fields
    ([duration_ns] timing and [cache] disposition, which concurrent
    identical requests may race). A nonempty divergence list is a bug in
    the engine's transport: framing, routing, ordering or completion. *)

type divergence = {
  id : int;  (** Correlation id of the diverging request. *)
  request : string;  (** The request line as sent. *)
  reference : string;  (** Canonicalised {!Server.handle} response. *)
  sharded : string;  (** Canonicalised response over the socket. *)
}

type result_t = {
  requests : int;
  compared : int;
  divergences : divergence list;
      (** Empty means both transcripts agree. *)
}

val gen_stream : seed:int -> requests:int -> (int * string) list
(** The deterministic stream: [(id, request line)] pairs mixing checks
    (clean and leaky), cert emissions, lints, pings, and envelope
    errors. A third of the checks, cert emissions and lints declare a
    protocol version below 4 (the oldest that has the op, or newer), so
    they take the engine's serial queue. Same seed, same stream. *)

val run :
  ?seed:int ->
  ?requests:int ->
  ?shards:int ->
  ?workers:int ->
  unit ->
  (result_t, string) result
(** [run ()] builds the reference transcript, boots a server with
    [shards] connection shards in-process on a temporary Unix socket,
    replays, compares, and tears down. Both servers get [workers] worker
    domains. Defaults: seed 42, 500 requests, 2 shards, 2 workers.
    [Error] means a replay itself broke (transport failure), which is
    just as damning as a divergence. *)

val report_fields : result_t -> (string * Ifc_pipeline.Telemetry.json) list
(** JSON summary: counts plus the first five divergences in full. *)
