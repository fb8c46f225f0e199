(* The client side of one Unix-socket connection: buffered line I/O and
   a closed loop that keeps [window] requests in flight, recording each
   request's latency from the write of its line to the read of its
   response line. Nothing here parses a response beyond its id. *)

module J = Ifc_pipeline.Telemetry

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  pending : Buffer.t;
}

let of_fd fd =
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0; pending = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.create (String.length line + 1) in
  Bytes.blit_string line 0 b 0 (String.length line);
  Bytes.set b (String.length line) '\n';
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* The next response line, or [None] on end of stream or after [timeout]
   seconds without a byte. *)
let read_line c ~timeout =
  let rec scan () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some i when i < c.hi ->
      Buffer.add_subbytes c.pending c.buf c.lo (i - c.lo);
      c.lo <- i + 1;
      let line = Buffer.contents c.pending in
      Buffer.clear c.pending;
      Some line
    | _ ->
      Buffer.add_subbytes c.pending c.buf c.lo (c.hi - c.lo);
      c.lo <- 0;
      c.hi <- 0;
      refill ()
  and refill () =
    match Unix.select [ c.fd ] [] [] timeout with
    | [], _, _ -> None
    | _ -> (
      match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
      | 0 -> None
      | n ->
        c.lo <- 0;
        c.hi <- n;
        scan ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
  in
  if c.lo < c.hi then scan () else refill ()

(* Responses open with {"v":N,"id":..., so the first "id" key is the
   envelope's. *)
let response_id line =
  let key = "\"id\":" in
  match Str_find.index line key 0 with
  | None -> None
  | Some i ->
    let start = i + String.length key in
    let stop = ref start in
    while
      !stop < String.length line && (line.[!stop] = '-' || (line.[!stop] >= '0' && line.[!stop] <= '9'))
    do
      incr stop
    done;
    int_of_string_opt (String.sub line start (!stop - start))

type sample = {
  s_id : int;
  sent_ns : int64;
  recv_ns : int64;  (** [0L] when no response arrived. *)
  response : string;  (** [""] when no response arrived. *)
}

let latency_ns s = Int64.sub s.recv_ns s.sent_ns

(* Closed loop: [next k] gives the [k]-th request as [(id, line, alone)],
   or [None] to stop sending; at most [window] are outstanding. A request
   marked [alone] waits until every earlier one is answered, and nothing
   is sent beside it until it is answered too. Returns the samples in
   send order plus the wall time from the first write to the last read.
   Requests never answered (end of stream, or [timeout] seconds of
   silence) come back with [recv_ns = 0L]. *)
let drive c ~window ~timeout ~next =
  let outstanding : (int, int * int64) Hashtbl.t = Hashtbl.create 8 in
  let sent = ref [] and k = ref 0 and stopped = ref false and broken = ref false in
  let answered : (int, int64 * string) Hashtbl.t = Hashtbl.create 1024 in
  let first = ref 0L and last = ref 0L in
  (* A request drawn from [next] but waiting to go alone, and the one
     that went alone and is unanswered. *)
  let held = ref None and alone = ref None in
  let rec fill () =
    if (not !stopped) && !alone = None && Hashtbl.length outstanding < window then
      match (match !held with Some _ as r -> r | None -> next !k) with
      | None -> stopped := true
      | Some (_, _, true) as r when Hashtbl.length outstanding > 0 -> held := r
      | Some (id, line, by_itself) ->
        held := None;
        let t = J.now_ns () in
        if !k = 0 then first := t;
        send c line;
        Hashtbl.replace outstanding id (!k, t);
        sent := (id, t) :: !sent;
        if by_itself then alone := Some id;
        incr k;
        fill ()
  in
  let rec loop () =
    fill ();
    if Hashtbl.length outstanding > 0 && not !broken then
      match read_line c ~timeout with
      | None -> broken := true
      | Some line ->
        let t = J.now_ns () in
        last := t;
        (match response_id line with
        | Some id when Hashtbl.mem outstanding id ->
          Hashtbl.remove outstanding id;
          if !alone = Some id then alone := None;
          Hashtbl.replace answered id (t, line)
        | _ -> ());
        loop ()
  in
  (try loop () with Unix.Unix_error _ -> broken := true);
  let samples =
    List.rev_map
      (fun (id, sent_ns) ->
        match Hashtbl.find_opt answered id with
        | Some (recv_ns, response) -> { s_id = id; sent_ns; recv_ns; response }
        | None -> { s_id = id; sent_ns; recv_ns = 0L; response = "" })
      !sent
  in
  (Array.of_list samples, Int64.sub !last !first)
