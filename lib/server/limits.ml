(* Backpressure knobs and the connection gauge. *)

type t = {
  max_request_bytes : int;
  max_connections : int;
  max_pending : int;
  max_inflight : int;
  default_deadline_ms : int;
}

let default =
  {
    max_request_bytes = 1 lsl 20;
    max_connections = 64;
    max_pending = 1024;
    max_inflight = 32;
    default_deadline_ms = 0;
  }

(* The connection shards poll with select(2), whose fd sets cannot hold
   a descriptor numbered FD_SETSIZE or above. A cap that high can never
   be reached (the acceptor refuses such descriptors), so reject it up
   front. *)
let fd_setsize = 1024

let check_fd_budget ~what n =
  if n >= fd_setsize then
    Error
      (Printf.sprintf
         "%s %d exceeds the select() FD_SETSIZE budget: the server's \
          connection shards poll with select(2), which only accepts file \
          descriptors below %d. Use a value below %d."
         what n fd_setsize fd_setsize)
  else Ok ()

type gauge = { mutex : Mutex.t; mutable value : int; mutable peak : int }

let gauge () = { mutex = Mutex.create (); value = 0; peak = 0 }

let with_lock g f =
  Mutex.lock g.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.mutex) f

let try_incr g ~limit =
  with_lock g (fun () ->
      if limit > 0 && g.value >= limit then false
      else begin
        g.value <- g.value + 1;
        if g.value > g.peak then g.peak <- g.value;
        true
      end)

let decr g = with_lock g (fun () -> g.value <- max 0 (g.value - 1))

let value g = with_lock g (fun () -> g.value)

let peak g = with_lock g (fun () -> g.peak)
