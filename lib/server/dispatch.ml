(* The classification result shared by the server's shard event loops
   and [Server.handle], kept in its own module so Shard does not depend
   on Server.

   Classifying a request either produces the complete response line on
   the spot (cache hits, protocol errors, ping/stats, inline cert
   checks), or a pooled job: a handle the connection engine can submit
   to the worker pool, race against its deadline, and refuse under
   per-connection backpressure. Exactly one of {completion, timeout}
   renders the response — the two sides race through an internal
   once-flag, which is why [timeout] can answer [None]. *)

type pooled = {
  deadline_ns : int64 option;
      (* Absolute monotonic deadline (Telemetry.now_ns scale), already
         resolved against the server's default. *)
  cancelled : bool Atomic.t;
      (* Cooperative cancellation: set before a worker picks the job up
         and the job is never executed at all. The [timeout] callback
         sets it; a shard closing a dead connection sets it directly. *)
  submit : complete:(string -> unit) -> unit;
      (* Hand the job to the worker pool. [complete] is called at most
         once, from the worker, with the final accounted response line;
         it is never called after [timeout] has returned [Some _]. A
         pool already shutting down completes with an [overloaded]
         response instead of raising. *)
  timeout : unit -> string option;
      (* Deadline expiry: cancels the job and renders + accounts the
         timeout response — unless completion won the race, in which
         case [None] (the completion is in flight; keep waiting). *)
  refuse_inflight : unit -> string;
      (* Per-connection backpressure: renders + accounts an [overloaded]
         response for this request. Only valid instead of [submit],
         never after it. *)
}

type action = Immediate of string | Pooled of pooled
