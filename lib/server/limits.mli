(** Robustness limits for the certification daemon, plus the shared
    connection gauge that enforces the connection cap. *)

type t = {
  max_request_bytes : int;
      (** Longest accepted request line in bytes; longer lines are
          consumed and answered with an [oversized] error. *)
  max_connections : int;
      (** Concurrent client connections; excess connections receive one
          [overloaded] response and are closed. [0] means unlimited. *)
  max_pending : int;
      (** Queued-but-unstarted jobs tolerated before a request is
          answered [overloaded] instead of being enqueued. [0] means
          unlimited. *)
  max_inflight : int;
      (** Concurrently executing pipelined (protocol v4) requests
          tolerated per connection before further pipelined requests
          are answered [overloaded] immediately — earlier in-flight
          requests still complete. [0] means unlimited. *)
  default_deadline_ms : int;
      (** Deadline applied to requests that carry none. [0] means no
          deadline. *)
}

val default : t
(** 1 MiB requests, 64 connections, 1024 pending jobs, 32 in-flight
    pipelined requests per connection, no deadline. *)

val fd_setsize : int
(** [1024]: the select(2) fd-set capacity the connection shards are
    subject to. A descriptor numbered [fd_setsize] or above makes
    [Unix.select] fail with a raw [EINVAL], so the acceptor answers such
    a connection [overloaded] instead of dealing it to a shard. *)

val check_fd_budget : what:string -> int -> (unit, string) result
(** [check_fd_budget ~what n] rejects a requested connection or client
    count [n >= fd_setsize], which no server could hold, with a message
    naming [what]: a clear configuration error up front. [n = 0]
    (unlimited) passes. *)

(** {1 Gauge}

    A thread-safe up/down counter with a peak-tracking high-water
    mark. *)

type gauge

val gauge : unit -> gauge

val try_incr : gauge -> limit:int -> bool
(** Increments and returns [true] unless the gauge already sits at
    [limit] ([limit <= 0] disables the cap). *)

val decr : gauge -> unit
(** Never drops below zero. *)

val value : gauge -> int

val peak : gauge -> int
