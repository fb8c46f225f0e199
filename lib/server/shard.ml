(* One connection shard: a thread multiplexing many client sockets over
   nonblocking I/O and one [select], owning every read/write buffer for
   the connections assigned to it. Worker completions re-enter through a
   mutex-protected inbox plus a self-pipe byte, so the loop never blocks
   longer than its poll interval with work queued.

   Ordering contract (see PROTOCOL.md §version 4): items that did not
   successfully declare protocol v4 — older versions, garbage, oversized
   tombstones — flow through a per-connection serial queue, classified
   one at a time only when everything before them has been answered, so
   versions 1–3 keep their strict request-order, classify-at-dispatch
   semantics (a cache hit is a hit at the moment the request is served,
   exactly as in sequential [Server.handle] calls). Requests that did
   declare v4 are classified on arrival and may be answered out of
   order; the per-connection in-flight cap backpressures them with an
   immediate [overloaded] response while earlier requests keep
   running. *)

module J = Ifc_pipeline.Telemetry

type msg =
  | Add_conn of Unix.file_descr
  | Done of int * int * string (* connection key, pending token, response *)

type pending = {
  p_cancelled : bool Atomic.t;
  p_timeout : unit -> string option;
  p_deadline_ns : int64 option;
  p_serial : bool;
}

type cstate = {
  fd : Unix.file_descr;
  key : int;
  reader : Conn.reader;
  serial_q : Conn.item Queue.t;
  pending : (int, pending) Hashtbl.t;
  buf : Buffer.t; (* response bytes not yet written *)
  mutable out_pos : int; (* first unwritten byte in [buf] *)
  mutable serial_busy : bool;
  mutable closing : bool; (* EOF seen: drain, then close *)
}

type t = {
  thread : Thread.t;
  inbox : msg Queue.t;
  inbox_mutex : Mutex.t;
  wake_w : Unix.file_descr;
}

let post t msg =
  Mutex.lock t.inbox_mutex;
  Queue.push msg t.inbox;
  Mutex.unlock t.inbox_mutex;
  (* Best effort: a full pipe already guarantees a wake-up. *)
  match Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let add t fd = post t (Add_conn fd)

let wake t = post t (Done (-1, -1, ""))

let join t = Thread.join t.thread

(* ------------------------------------------------------------------ *)
(* The event loop *)

let start ~limits ~should_stop ~on_conn_close ~classify () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let inbox = Queue.create () in
  let inbox_mutex = Mutex.create () in
  let conns : (int, cstate) Hashtbl.t = Hashtbl.create 64 in
  let by_fd : (Unix.file_descr, cstate) Hashtbl.t = Hashtbl.create 64 in
  let key_seq = ref 0 and token_seq = ref 0 in
  let max_inflight = limits.Limits.max_inflight in
  let self = ref None in
  let post_done key token line =
    match !self with Some t -> post t (Done (key, token, line)) | None -> ()
  in

  let push_out conn line =
    Buffer.add_string conn.buf line;
    Buffer.add_char conn.buf '\n'
  in

  let dispatch_pooled conn ~serial (p : Dispatch.pooled) =
    incr token_seq;
    let token = !token_seq in
    Hashtbl.replace conn.pending token
      {
        p_cancelled = p.Dispatch.cancelled;
        p_timeout = p.Dispatch.timeout;
        p_deadline_ns = p.Dispatch.deadline_ns;
        p_serial = serial;
      };
    if serial then conn.serial_busy <- true;
    let key = conn.key in
    p.Dispatch.submit ~complete:(fun line -> post_done key token line)
  in

  (* Serve the serial queue head-first; a pooled job parks the queue
     until its completion (or timeout) reopens it. *)
  let rec pump_serial conn =
    if not conn.serial_busy then
      match Queue.take_opt conn.serial_q with
      | None -> ()
      | Some item -> (
        match classify item with
        | Dispatch.Immediate line ->
          push_out conn line;
          pump_serial conn
        | Dispatch.Pooled p -> dispatch_pooled conn ~serial:true p)
  in

  let handle_pipelined conn item =
    match classify item with
    | Dispatch.Immediate line -> push_out conn line
    | Dispatch.Pooled p ->
      if max_inflight > 0 && Hashtbl.length conn.pending >= max_inflight then
        push_out conn (p.Dispatch.refuse_inflight ())
      else dispatch_pooled conn ~serial:false p
  in

  let route conn item =
    match item with
    | `Line l when Protocol.pipelined_line l -> handle_pipelined conn item
    | _ -> Queue.push item conn.serial_q
  in

  let drain_items conn =
    let rec go () =
      match Conn.pop_item conn.reader with
      | None -> ()
      | Some item ->
        route conn item;
        go ()
    in
    go ();
    pump_serial conn
  in

  let read_conn conn =
    let rec go () =
      match Conn.feed_fd conn.reader with
      | `Read -> go ()
      | `Blocked -> ()
      | `Eof -> conn.closing <- true
    in
    go ();
    drain_items conn
  in

  let abandon_pending conn =
    Hashtbl.iter
      (fun _ p -> Atomic.set p.p_cancelled true)
      conn.pending;
    Hashtbl.reset conn.pending
  in

  let close_conn conn =
    abandon_pending conn;
    Hashtbl.remove conns conn.key;
    Hashtbl.remove by_fd conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    on_conn_close ()
  in

  let flush_conn conn =
    let len = Buffer.length conn.buf in
    if conn.out_pos < len then begin
      let data = Buffer.contents conn.buf in
      match Unix.write_substring conn.fd data conn.out_pos (len - conn.out_pos) with
      | n ->
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos >= Buffer.length conn.buf then begin
          Buffer.clear conn.buf;
          conn.out_pos <- 0
        end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ ->
        (* Dead peer: in-flight work is abandoned cooperatively. *)
        close_conn conn
    end
  in

  let expire_deadlines now =
    Hashtbl.iter
      (fun _ conn ->
        let expired =
          Hashtbl.fold
            (fun token p acc ->
              match p.p_deadline_ns with
              | Some d when Int64.compare now d > 0 -> (token, p) :: acc
              | _ -> acc)
            conn.pending []
        in
        List.iter
          (fun (token, p) ->
            match p.p_timeout () with
            | Some line ->
              Hashtbl.remove conn.pending token;
              if p.p_serial then conn.serial_busy <- false;
              push_out conn line
            | None -> (* completion won the race; its Done is in flight *) ())
          expired;
        if expired <> [] then pump_serial conn)
      conns
  in

  let handle_msg = function
    | Add_conn fd ->
      Unix.set_nonblock fd;
      incr key_seq;
      let key = !key_seq in
      let conn =
        {
          fd;
          key;
          reader = Conn.reader ~max_bytes:limits.Limits.max_request_bytes fd;
          serial_q = Queue.create ();
          pending = Hashtbl.create 8;
          buf = Buffer.create 256;
          out_pos = 0;
          serial_busy = false;
          closing = false;
        }
      in
      Hashtbl.replace conns key conn;
      Hashtbl.replace by_fd fd conn
    | Done (key, token, line) -> (
      match Hashtbl.find_opt conns key with
      | None -> (* connection died first; drop the response *) ()
      | Some conn -> (
        match Hashtbl.find_opt conn.pending token with
        | None -> (* timed out earlier; drop the late response *) ()
        | Some p ->
          Hashtbl.remove conn.pending token;
          if p.p_serial then conn.serial_busy <- false;
          push_out conn line;
          pump_serial conn))
  in

  let drain_inbox () =
    let rec go () =
      let msg =
        Mutex.lock inbox_mutex;
        let m = Queue.take_opt inbox in
        Mutex.unlock inbox_mutex;
        m
      in
      match msg with
      | None -> ()
      | Some m ->
        handle_msg m;
        go ()
    in
    go ()
  in

  let drain_wake_pipe () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read wake_r b 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in

  (* A connection is complete when nothing more can produce output for
     it: peer gone or server stopping, queues empty, responses
     flushed. *)
  let finished conn =
    (conn.closing || should_stop ())
    && Hashtbl.length conn.pending = 0
    && Queue.is_empty conn.serial_q
    && (not conn.serial_busy)
    && Buffer.length conn.buf = conn.out_pos
  in

  let reap () =
    let done_ =
      Hashtbl.fold
        (fun _ conn acc -> if finished conn then conn :: acc else acc)
        conns []
    in
    List.iter close_conn done_
  in

  let loop () =
    let rec go () =
      let stopping = should_stop () in
      let read_fds =
        wake_r
        :: Hashtbl.fold
             (fun _ conn acc ->
               (* Stop reading at EOF, during drain, and while the peer
                  is not consuming its responses (write backpressure). *)
               if
                 conn.closing || stopping
                 || Buffer.length conn.buf - conn.out_pos
                    > limits.Limits.max_request_bytes
               then acc
               else conn.fd :: acc)
             conns []
      in
      let write_fds =
        Hashtbl.fold
          (fun _ conn acc ->
            if Buffer.length conn.buf > conn.out_pos then conn.fd :: acc
            else acc)
          conns []
      in
      let now = J.now_ns () in
      let timeout =
        Hashtbl.fold
          (fun _ conn acc ->
            Hashtbl.fold
              (fun _ p acc ->
                match p.p_deadline_ns with
                | Some d ->
                  let dt = Int64.to_float (Int64.sub d now) /. 1e9 in
                  Float.min acc (Float.max 0.001 dt)
                | None -> acc)
              conn.pending acc)
          conns 0.2
      in
      (match Unix.select read_fds write_fds [] timeout with
      | readable, writable, _ ->
        if List.memq wake_r readable then drain_wake_pipe ();
        drain_inbox ();
        List.iter
          (fun fd ->
            if fd != wake_r then
              match Hashtbl.find_opt by_fd fd with
              | Some conn -> read_conn conn
              | None -> ())
          readable;
        expire_deadlines (J.now_ns ());
        ignore writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      (* Flush whatever the cycle produced without waiting for the next
         writability notice; EAGAIN just leaves it for select. *)
      drain_inbox ();
      expire_deadlines (J.now_ns ());
      let snapshot = Hashtbl.fold (fun _ conn acc -> conn :: acc) conns [] in
      List.iter flush_conn snapshot;
      reap ();
      if not (should_stop () && Hashtbl.length conns = 0) then go ()
    in
    (try go () with e ->
      Printf.eprintf "ifc serve: shard died: %s\n%!" (Printexc.to_string e));
    (try Unix.close wake_r with Unix.Unix_error _ -> ());
    try Unix.close wake_w with Unix.Unix_error _ -> ()
  in
  let t =
    { thread = Thread.create loop (); inbox; inbox_mutex; wake_w }
  in
  self := Some t;
  t
