(* Differential server oracle: the server engine, driven over sockets
   with pipelined traffic, must answer a request stream exactly as
   sequential [Server.handle] calls on an in-process server do.

   A seeded generator builds a stream of check/cert/lint/ping requests
   (plus envelope errors) with distinct correlation ids. The reference
   transcript sends every line through [Server.handle], in order, on a
   server that never accepts a connection. The stream is then replayed
   pipelined (a window of in-flight requests on each of several
   connections) against a running server; responses are canonicalised —
   timing ([duration_ns]) and cache disposition ([cache]) fields
   stripped, since identical concurrent requests may legitimately race
   the cache — and compared byte for byte per id. Any divergence is a
   bug in the engine's framing, routing, ordering or completion
   plumbing. *)

module J = Ifc_pipeline.Telemetry

type divergence = {
  id : int;
  request : string;
  reference : string;
  sharded : string;
}

type result_t = {
  requests : int;
  compared : int;
  divergences : divergence list;
}

(* ------------------------------------------------------------------ *)
(* Stream generation *)

(* The builders write the current protocol version; rewrite it. *)
let at_version v line =
  match Jsonx.parse line with
  | Ok (J.Obj fields) ->
    J.json_to_string
      (J.Obj
         (List.map (fun (k, x) -> if k = "v" then (k, J.Int v) else (k, x)) fields))
  | _ -> line

(* A third of the pooled requests declare a version below 4, so the
   engine's serial queue, where a job parks the connection until it
   completes, is diffed too. Each op keeps a version that has it: check
   from 1, cert from 2, lint from 3. *)
let maybe_serial rng ~since line =
  if Random.State.int rng 3 > 0 then line
  else at_version (since + Random.State.int rng (4 - since)) line

let gen_line rng i =
  let id = J.Int i in
  let variant = Random.State.int rng 24 in
  let program = Loadgen.program_variant variant in
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 ->
    maybe_serial rng ~since:1 (Protocol.check_line ~id ~name:"oracle" program)
  | 4 | 5 ->
    (* A leaky program: verdicts must disagree with the clean variant
       identically in both transcripts. *)
    maybe_serial rng ~since:1
      (Protocol.check_line ~id ~name:"oracle"
         ~binding:"h : high\nx : low\ny : low"
         (Printf.sprintf
            "var h, x, y : integer;\nbegin x := h; y := x + %d end" variant))
  | 6 | 7 ->
    maybe_serial rng ~since:2 (Protocol.cert_emit_line ~id ~name:"oracle" program)
  | 8 | 9 -> maybe_serial rng ~since:3 (Protocol.lint_line ~id ~name:"oracle" program)
  | 10 -> Protocol.ping_line ~id ()
  | _ -> (
    (* Envelope errors: responses are fixed strings, so they diff too. *)
    match Random.State.int rng 3 with
    | 0 -> Printf.sprintf {|{"v": 99, "id": %d, "op": "ping"}|} i
    | 1 -> Printf.sprintf {|{"v": 1, "id": %d}|} i
    | _ -> Printf.sprintf {|{"v": 1, "id": %d, "op": "frobnicate"}|} i)

let gen_stream ~seed ~requests =
  let rng = Random.State.make [| seed |] in
  List.init requests (fun i -> (i, gen_line rng i))

(* ------------------------------------------------------------------ *)
(* Canonicalisation *)

let rec strip json =
  match json with
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "cache" || k = "duration_ns" then None
           else Some (k, strip v))
         fields)
  | J.List items -> J.List (List.map strip items)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Replay *)

(* The reference transcript: every line through [Server.handle], in
   order. *)
let replay_handle server stream =
  let responses = Hashtbl.create (List.length stream) in
  let rec go = function
    | [] -> Ok responses
    | (i, line) :: rest -> (
      match Jsonx.parse (Server.handle server (`Line line)) with
      | Ok json ->
        Hashtbl.replace responses i (J.json_to_string (strip json));
        go rest
      | Error msg ->
        Error (Printf.sprintf "unparseable response to id %d: %s" i msg))
  in
  go stream

(* Pipelined replay: the stream is dealt round-robin over [conns]
   connections, each keeping [window] requests in flight. *)
let replay_pipelined ?(conns = 4) ?(window = 16) endpoint stream =
  let responses = Hashtbl.create (List.length stream) in
  let mutex = Mutex.create () in
  let failure = ref None in
  let fail msg =
    Mutex.lock mutex;
    if !failure = None then failure := Some msg;
    Mutex.unlock mutex
  in
  let slice k =
    List.filteri (fun idx _ -> idx mod conns = k) stream
  in
  let worker k =
    match Client.connect ~retry_for:5. endpoint with
    | Error msg -> fail msg
    | Ok client ->
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let fd = Client.fd client and reader = Client.reader client in
      let todo = ref (slice k) and inflight = ref 0 and expected = ref 0 in
      List.iter (fun _ -> incr expected) (slice k);
      let received = ref 0 in
      let send_some () =
        while !inflight < window && !todo <> [] do
          match !todo with
          | [] -> ()
          | (_, line) :: rest ->
            if Conn.write_line fd line then begin
              todo := rest;
              incr inflight
            end
            else begin
              fail "pipelined replay: write failed";
              todo := []
            end
        done
      in
      send_some ();
      while !received < !expected && !failure = None do
        (match Conn.next_line reader with
        | `Line l -> (
          match
            Option.bind (Jsonx.parse l |> Result.to_option) (fun json ->
                Option.map
                  (fun id -> (id, json))
                  (Option.bind (Jsonx.member "id" json) Jsonx.int_opt))
          with
          | Some (id, json) ->
            Mutex.lock mutex;
            Hashtbl.replace responses id (J.json_to_string (strip json));
            Mutex.unlock mutex;
            incr received;
            decr inflight
          | None -> fail ("pipelined replay: uncorrelatable response " ^ l))
        | `Eof -> fail "pipelined replay: connection closed early"
        | `Oversized -> fail "pipelined replay: oversized response");
        send_some ()
      done
  in
  let threads = List.init conns (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  match !failure with Some msg -> Error msg | None -> Ok responses

(* ------------------------------------------------------------------ *)
(* Harness *)

(* A server on a temporary Unix socket for the duration of [f]. Only
   with [accept] does it run its accept loop; otherwise it is stopped
   before [run], which then drains it at once. *)
let with_server ~accept ~shards ~workers f =
  let sock = Filename.temp_file "ifc-oracle" ".sock" in
  let endpoint = Conn.Unix_socket sock in
  let config =
    {
      Server.default_config with
      endpoints = [ endpoint ];
      workers;
      shards;
      cache_capacity = 256;
    }
  in
  match Server.create config with
  | Error msg -> Error msg
  | Ok server ->
    let thread = if accept then Some (Thread.create Server.run server) else None in
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop server;
        (match thread with Some th -> Thread.join th | None -> Server.run server);
        try Sys.remove sock with Sys_error _ -> ())
      (fun () -> f server endpoint)

let run ?(seed = 42) ?(requests = 500) ?(shards = 2) ?(workers = 2) () =
  let stream = gen_stream ~seed ~requests in
  let reference =
    with_server ~accept:false ~shards:1 ~workers (fun server _ ->
        replay_handle server stream)
  in
  match reference with
  | Error msg -> Error ("reference: " ^ msg)
  | Ok reference_responses -> (
    let sharded =
      with_server ~accept:true ~shards ~workers (fun _ endpoint ->
          replay_pipelined endpoint stream)
    in
    match sharded with
    | Error msg -> Error ("sharded engine: " ^ msg)
    | Ok sharded_responses ->
      let divergences =
        List.filter_map
          (fun (i, request) ->
            let missing = "<no response>" in
            let r =
              Option.value ~default:missing
                (Hashtbl.find_opt reference_responses i)
            and s =
              Option.value ~default:missing
                (Hashtbl.find_opt sharded_responses i)
            in
            if r = s then None
            else Some { id = i; request; reference = r; sharded = s })
          stream
      in
      Ok { requests; compared = List.length stream; divergences })

let report_fields r =
  [
    ("requests", J.Int r.requests);
    ("compared", J.Int r.compared);
    ("divergences", J.Int (List.length r.divergences));
    ( "first_divergences",
      J.List
        (List.filteri
           (fun i _ -> i < 5)
           (List.map
              (fun d ->
                J.Obj
                  [
                    ("id", J.Int d.id);
                    ("request", J.String d.request);
                    ("reference", J.String d.reference);
                    ("sharded", J.String d.sharded);
                  ])
              r.divergences)) );
  ]
