(* Endpoints and the bounded newline-delimited reader and writer shared
   by server and client. *)

(* ------------------------------------------------------------------ *)
(* Endpoints *)

type endpoint = Unix_socket of string | Tcp of string * int

let pp_endpoint ppf = function
  | Unix_socket path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

let tcp_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "invalid port in %S" s))

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> Ok addrs.(0)
    | _ | (exception Not_found) ->
      Error (Printf.sprintf "cannot resolve host %S" host))

let sockaddr_of_endpoint = function
  | Unix_socket path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    Result.map (fun addr -> Unix.ADDR_INET (addr, port)) (resolve_host host)

(* ------------------------------------------------------------------ *)
(* Reading *)

type item = [ `Line of string | `Oversized ]

type reader = {
  fd : Unix.file_descr;
  max_bytes : int;
  chunk : Bytes.t;
  pending : item Queue.t;
  acc : Buffer.t;
  mutable discarding : bool;
  mutable eof : bool;
}

let reader ?(max_bytes = max_int) fd =
  {
    fd;
    max_bytes;
    chunk = Bytes.create 8192;
    pending = Queue.create ();
    acc = Buffer.create 256;
    discarding = false;
    eof = false;
  }

(* Split freshly read bytes into complete lines. A line that outgrows
   [max_bytes] is dropped on the floor byte by byte — the connection
   survives, only the request dies. *)
let feed r n =
  for i = 0 to n - 1 do
    match Bytes.get r.chunk i with
    | '\n' ->
      (if r.discarding then begin
         Queue.push `Oversized r.pending;
         r.discarding <- false
       end
       else begin
         let line = Buffer.contents r.acc in
         let line =
           (* Tolerate CRLF-terminated requests from interactive tools. *)
           if String.length line > 0 && line.[String.length line - 1] = '\r' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         Queue.push (`Line line) r.pending
       end);
      Buffer.clear r.acc
    | c when not r.discarding ->
      Buffer.add_char r.acc c;
      if Buffer.length r.acc > r.max_bytes then begin
        Buffer.clear r.acc;
        r.discarding <- true
      end
    | _ -> ()
  done

(* A plain blocking read: no select, so a client may hold descriptors
   at or above FD_SETSIZE. *)
let rec next_line r =
  match Queue.take_opt r.pending with
  | Some (`Line l) -> `Line l
  | Some `Oversized -> `Oversized
  | None ->
    if r.eof then `Eof
    else begin
      (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> r.eof <- true
      | n -> feed r n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
        r.eof <- true);
      next_line r
    end

(* Nonblocking half of the reader, for event loops that multiplex many
   connections on one select: one read attempt feeding the splitter,
   and a non-consuming-wait item pop. The fd must already be in
   nonblocking mode. *)

let feed_fd r =
  if r.eof then `Eof
  else
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 ->
      r.eof <- true;
      `Eof
    | n ->
      feed r n;
      `Read
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> `Blocked
    | exception Unix.Unix_error _ ->
      r.eof <- true;
      `Eof

let pop_item r = Queue.take_opt r.pending

(* ------------------------------------------------------------------ *)
(* Writing *)

let write_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off >= len then true
    else
      match Unix.write fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> false
