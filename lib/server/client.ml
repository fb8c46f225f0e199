(* The matching client: connect, send one request line, read one
   response line. *)

module J = Ifc_pipeline.Telemetry

type t = { fd : Unix.file_descr; reader : Conn.reader }

let connect ?(retry_for = 0.) endpoint =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Conn.sockaddr_of_endpoint endpoint with
  | Error msg -> Error msg
  | Ok addr ->
    let deadline = Unix.gettimeofday () +. retry_for in
    let rec attempt () =
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> Ok { fd; reader = Conn.reader fd }
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let transient =
          match err with
          | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EAGAIN -> true
          | _ -> false
        in
        if transient && Unix.gettimeofday () < deadline then begin
          Thread.delay 0.05;
          attempt ()
        end
        else
          Error
            (Fmt.str "cannot connect to %a: %s" Conn.pp_endpoint endpoint
               (Unix.error_message err))
    in
    attempt ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fd t = t.fd

let reader t = t.reader

let request t line =
  (* Read even when the write fails: a server refusing the connection
     (overloaded) answers and closes before reading our request, and
     that response is still buffered on our side of the socket. *)
  let wrote = Conn.write_line t.fd line in
  match Conn.next_line t.reader with
  | `Line l -> (
    match Jsonx.parse l with
    | Ok json -> Ok json
    | Error msg -> Error ("malformed response: " ^ msg))
  | `Eof ->
    Error
      (if wrote then "connection closed by the server"
       else "connection closed while sending the request")
  | `Oversized -> Error "response exceeded the reader limit"

let check t ?id ?name ?lattice ?binding ?analyses ?self_check ?ni_pairs
    ?ni_max_states ?deadline_ms program =
  request t
    (Protocol.check_line ?id ?name ?lattice ?binding ?analyses ?self_check
       ?ni_pairs ?ni_max_states ?deadline_ms program)

let cert_emit t ?id ?name ?lattice ?binding ?deadline_ms program =
  request t
    (Protocol.cert_emit_line ?id ?name ?lattice ?binding ?deadline_ms program)

let cert_check t ?id ?name ?deadline_ms ~cert program =
  request t (Protocol.cert_check_line ?id ?name ?deadline_ms ~cert program)

let lint t ?id ?name ?deadline_ms program =
  request t (Protocol.lint_line ?id ?name ?deadline_ms program)

let stats t = request t (Protocol.stats_line ())

let ping t =
  match request t (Protocol.ping_line ()) with
  | Ok json when Protocol.response_ok json -> Ok ()
  | Ok json -> (
    match Protocol.response_error json with
    | Some (code, msg) -> Error (code ^ ": " ^ msg)
    | None -> Error "ping refused")
  | Error msg -> Error msg

let with_client ?retry_for endpoint f =
  match connect ?retry_for endpoint with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
