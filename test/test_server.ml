(* Tests for the certification daemon: the JSON parser it trusts with
   socket input, the wire protocol, the latency histogram and JSONL sink
   hygiene it reports through, and — over real sockets — the service
   guarantees: concurrent clients see sequential verdicts, deadlines
   time out without collateral damage, malformed and oversized requests
   never kill a connection, limits answer [overloaded], SIGTERM drains,
   and the shared cache warms to a 100% hit rate. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Parser = Ifc_lang.Parser
module Vars = Ifc_lang.Vars
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Job = Ifc_pipeline.Job
module J = Ifc_pipeline.Telemetry
module Jsonx = Ifc_server.Jsonx
module Protocol = Ifc_server.Protocol
module Conn = Ifc_server.Conn
module Limits = Ifc_server.Limits
module Server = Ifc_server.Server
module Client = Ifc_server.Client
module Loadgen = Ifc_server.Loadgen

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

let two = Lattice.stringify Chain.two

let fail_result = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Jsonx: parsing and round-trips through Telemetry's renderer *)

let roundtrip value =
  match Jsonx.parse (J.json_to_string value) with
  | Ok parsed -> parsed
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

let test_jsonx_roundtrip_values () =
  List.iter
    (fun v -> check "round-trip" true (roundtrip v = v))
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 1.5;
      J.Float (-0.125);
      J.String "";
      J.List [ J.Int 1; J.Null; J.String "x" ];
      J.Obj [ ("a", J.Int 1); ("b", J.Obj [ ("c", J.List []) ]) ];
    ]

let test_jsonx_roundtrip_escaping () =
  (* The satellite check: Telemetry's hand-rolled escaping must survive
     a real JSON parser byte-for-byte. *)
  List.iter
    (fun s -> check_str "string round-trip" s
        (match roundtrip (J.String s) with
        | J.String s' -> s'
        | _ -> Alcotest.fail "not a string"))
    [
      "plain";
      "quote \" inside";
      "back\\slash";
      "newline\nand\rreturn\tand tab";
      "control \001 \031 bytes";
      "nul \000 byte";
      "non-ASCII: h\xc3\xa9llo \xe2\x80\xa6 \xf0\x9f\x98\x80";
      "mixed \"\\\n\t\xc3\xa9";
    ]

let test_jsonx_unicode_escapes () =
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included. *)
  let parse_string s =
    match Jsonx.parse s with
    | Ok (J.String v) -> v
    | Ok _ -> Alcotest.fail "not a string"
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  check_str "BMP escape" "\xc3\xa9" (parse_string {|"é"|});
  check_str "ASCII escape" "A" (parse_string {|"A"|});
  check_str "surrogate pair" "\xf0\x9f\x98\x80" (parse_string {|"😀"|});
  check_str "escaped controls" "\n\t" (parse_string {|"\n\t"|})

let test_jsonx_rejects () =
  let rejects label s =
    check label true (match Jsonx.parse s with Error _ -> true | Ok _ -> false)
  in
  rejects "empty" "";
  rejects "garbage" "hello";
  rejects "trailing garbage" "{} trailing";
  rejects "two values" "1 2";
  rejects "raw newline in string" "\"a\nb\"";
  rejects "raw control in string" "\"a\001b\"";
  rejects "lone high surrogate" {|"\ud83d"|};
  rejects "lone low surrogate" {|"\ude00"|};
  rejects "bad escape" {|"\q"|};
  rejects "unterminated string" "\"abc";
  rejects "unterminated object" "{\"a\": 1";
  rejects "deep nesting" (String.concat "" (List.init 600 (fun _ -> "[")));
  check "valid object accepted" true
    (Jsonx.parse {|{"a": [1, 2.5, true, null, "x"]}|} |> Result.is_ok)

let test_jsonx_accessors () =
  let json = fail_result (Jsonx.parse {|{"s": "v", "i": 7, "f": 7.0, "b": true, "l": [1]}|}) in
  check "member hit" true (Jsonx.member "s" json <> None);
  check "member miss" true (Jsonx.member "zz" json = None);
  check_str "mem_string" "v" (Option.get (Jsonx.mem_string "s" json));
  check_int "mem_int on Int" 7 (Option.get (Jsonx.mem_int "i" json));
  check_int "mem_int on integral Float" 7 (Option.get (Jsonx.mem_int "f" json));
  check "mem_bool" true (Option.get (Jsonx.mem_bool "b" json));
  check "list_opt" true
    (match Option.bind (Jsonx.member "l" json) Jsonx.list_opt with
    | Some [ J.Int 1 ] -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Latency histogram *)

let test_histogram () =
  let h = J.histogram () in
  check_int "empty" 0 (J.observations h);
  check "empty quantile" true (J.quantile_ns h 0.5 = 0L);
  for _ = 1 to 90 do J.observe h 1000L done;
  for _ = 1 to 10 do J.observe h 1_000_000L done;
  J.observe h (-5L);
  (* negative clamps to 0 *)
  check_int "count" 101 (J.observations h);
  (* Quantiles are bucket upper bounds: 1000 ns lands in the first
     bucket (upper 1024 ns), 1 ms in the 1048576 ns bucket. *)
  check "p50 within an octave" true (J.quantile_ns h 0.5 = 1024L);
  check "p99 within an octave" true (J.quantile_ns h 0.99 = 1_048_576L);
  check "quantiles monotone" true (J.quantile_ns h 0.5 <= J.quantile_ns h 0.99);
  let fields = J.histogram_fields h in
  let get name =
    match List.assoc name fields with
    | J.Int i -> Int64.of_int i
    | J.Float f -> Int64.of_float f
    | _ -> Alcotest.failf "field %s not numeric" name
  in
  check "max recorded" true (get "max_ns" = 1_000_000L);
  check_int "count field" 101 (Int64.to_int (get "count"));
  (* The stats op and bench reports quote p50/p95/p99 straight from
     these fields; pin the bucket geometry they are computed over:
     33 powers-of-two buckets from 1024 ns up. *)
  check_int "bucket count pinned" 33 J.bucket_count;
  check "first bucket upper bound" true (J.bucket_upper_ns 0 = 1024L);
  for i = 1 to J.bucket_count - 1 do
    check (Printf.sprintf "bucket %d doubles" i) true
      (J.bucket_upper_ns i = Int64.mul 2L (J.bucket_upper_ns (i - 1)))
  done;
  check "p95 field present" true (List.mem_assoc "p95_ns" fields);
  let p50 = get "p50_ns" and p95 = get "p95_ns" and p99 = get "p99_ns" in
  check "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  check "p95 equals quantile" true (p95 = J.quantile_ns h 0.95)

(* ------------------------------------------------------------------ *)
(* Sink hygiene: whole lines on every exit path *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let assert_whole_jsonl label contents =
  check (label ^ ": non-empty") true (String.length contents > 0);
  check (label ^ ": ends in newline") true
    (contents.[String.length contents - 1] = '\n');
  List.iteri
    (fun i line ->
      match Jsonx.parse line with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.failf "%s: line %d is not an object" label i
      | Error msg -> Alcotest.failf "%s: line %d unparsable: %s" label i msg)
    (String.split_on_char '\n' (String.trim contents))

let test_sink_flushes_every_event () =
  let path = Filename.temp_file "ifc_sink" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = J.open_sink path in
  J.emit sink [ ("event", J.String "one") ];
  J.emit sink [ ("text", J.String "tricky \"\n\\ line") ];
  (* Visible and complete before close: emit flushes per event. *)
  assert_whole_jsonl "before close" (read_file path);
  J.close sink;
  assert_whole_jsonl "after close" (read_file path);
  check_int "events written" 2 (J.events_written sink)

let test_with_sink_closes_on_raise () =
  let path = Filename.temp_file "ifc_sink" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let escaped = ref None in
  (try
     J.with_sink path (fun sink ->
         J.emit sink [ ("event", J.String "before crash") ];
         escaped := Some sink;
         failwith "boom")
   with Failure _ -> ());
  assert_whole_jsonl "after raise" (read_file path);
  (* The sink really was closed: emit after close is a silent no-op. *)
  (match !escaped with
  | Some sink -> J.emit sink [ ("event", J.String "after close") ]
  | None -> Alcotest.fail "with_sink never ran");
  check "no event after close" true
    (not (String.length (read_file path) > 0
          && String.length (read_file path)
             <> String.length (read_file path)));
  check_int "only the pre-crash event" 1
    (List.length
       (String.split_on_char '\n' (String.trim (read_file path))))

(* ------------------------------------------------------------------ *)
(* Protocol parsing *)

let test_protocol_parse () =
  (* A client-built line parses back to the same request. *)
  let line =
    Protocol.check_line ~id:(J.Int 3) ~name:"t" ~lattice:"mls"
      ~binding:"x : low" ~analyses:[ "denning"; "cfm" ] ~self_check:true
      ~deadline_ms:250 "begin x := 0 end"
  in
  let parsed = Protocol.parse_request line in
  check "id echoed" true (parsed.Protocol.id = J.Int 3);
  (match parsed.Protocol.op with
  | Ok (Protocol.Check r) ->
    check_str "name" "t" r.Protocol.name;
    check_str "lattice" "mls" r.Protocol.lattice;
    check "binding" true (r.Protocol.binding = Some "x : low");
    check "analyses" true (r.Protocol.analyses = [ "denning"; "cfm" ]);
    check "self_check" true r.Protocol.self_check;
    check "deadline" true (r.Protocol.deadline_ms = Some 250)
  | _ -> Alcotest.fail "expected a check op");
  (* Analyses also accepted as a CSV string. *)
  (match
     (Protocol.parse_request
        {|{"v": 1, "op": "check", "program": "p", "analyses": "cfm, prove"}|})
       .Protocol.op
   with
  | Ok (Protocol.Check r) ->
    check "csv analyses" true (r.Protocol.analyses = [ "cfm"; "prove" ])
  | _ -> Alcotest.fail "csv analyses rejected");
  let expect_error label line code =
    let parsed = Protocol.parse_request line in
    match parsed.Protocol.op with
    | Error (got, _) -> check_str label code (Protocol.code_string got)
    | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" label
  in
  expect_error "garbage" "not json" "parse_error";
  expect_error "non-object" "[1,2]" "parse_error";
  expect_error "missing version" {|{"op": "ping"}|} "bad_version";
  expect_error "wrong version" {|{"v": 99, "op": "ping"}|} "bad_version";
  expect_error "missing op" {|{"v": 1}|} "bad_request";
  expect_error "unknown op" {|{"v": 1, "op": "frobnicate"}|} "bad_request";
  expect_error "check without program" {|{"v": 1, "op": "check"}|} "bad_request";
  expect_error "bad deadline" {|{"v": 1, "op": "check", "program": "p", "deadline_ms": -1}|}
    "bad_request";
  (* Ids are recovered even from envelope failures. *)
  check "id survives bad version" true
    ((Protocol.parse_request {|{"v": 99, "id": 7}|}).Protocol.id = J.Int 7);
  (* cert ops: version 2 only; emit is the default action, check carries
     the certificate text verbatim. *)
  (match
     (Protocol.parse_request (Protocol.cert_emit_line ~name:"c" "p")).Protocol.op
   with
  | Ok (Protocol.Cert r) ->
    check_str "cert name" "c" r.Protocol.cert_name;
    check "emit action" true (r.Protocol.action = Protocol.Cert_emit)
  | _ -> Alcotest.fail "cert emit line rejected");
  (match
     (Protocol.parse_request (Protocol.cert_check_line ~cert:"ifc-cert 1" "p"))
       .Protocol.op
   with
  | Ok (Protocol.Cert r) ->
    check "check action" true (r.Protocol.action = Protocol.Cert_check "ifc-cert 1")
  | _ -> Alcotest.fail "cert check line rejected");
  expect_error "cert under v1" {|{"v": 1, "op": "cert", "program": "p"}|}
    "bad_request";
  expect_error "cert check without cert"
    {|{"v": 2, "op": "cert", "action": "check", "program": "p"}|} "bad_request";
  expect_error "cert unknown action"
    {|{"v": 2, "op": "cert", "action": "mint", "program": "p"}|} "bad_request";
  (* Every request records the version it declared, so responses can
     echo it and version-1 clients never see version-2 envelopes. *)
  check_int "v1 recorded" 1
    (Protocol.parse_request {|{"v": 1, "op": "ping"}|}).Protocol.v;
  check_int "v2 recorded" 2
    (Protocol.parse_request {|{"v": 2, "op": "ping"}|}).Protocol.v;
  check_int "v3 recorded" 3
    (Protocol.parse_request {|{"v": 3, "op": "ping"}|}).Protocol.v;
  check_int "client lines declare the current version" Protocol.version
    (Protocol.parse_request (Protocol.cert_emit_line "p")).Protocol.v;
  (* Only a v>=4 declaration opts a request into pipelining. *)
  check "v3 is not pipelined" false
    (Protocol.parse_request {|{"v": 3, "op": "ping"}|}).Protocol.pipelined;
  check "v4 is pipelined" true
    (Protocol.parse_request {|{"v": 4, "op": "ping"}|}).Protocol.pipelined;
  check "errors are never pipelined" false
    (Protocol.parse_request {|{"v": 99, "op": "ping"}|}).Protocol.pipelined;
  check "pipelined_line matches the gate" true
    (Protocol.pipelined_line {|{"v": 4, "op": "ping"}|}
    && (not (Protocol.pipelined_line {|{"v": 3, "op": "ping"}|}))
    && (not (Protocol.pipelined_line {|{"v": 99, "op": "ping"}|}))
    && not (Protocol.pipelined_line "not json"));
  (* lint ops: version 3 only; the request carries just the program. *)
  (match (Protocol.parse_request (Protocol.lint_line ~name:"l" "p")).Protocol.op with
  | Ok (Protocol.Lint r) ->
    check_str "lint name" "l" r.Protocol.lint_name;
    check_str "lint program" "p" r.Protocol.lint_program
  | _ -> Alcotest.fail "lint line rejected");
  expect_error "lint under v2" {|{"v": 2, "op": "lint", "program": "p"}|}
    "bad_request";
  expect_error "lint without program" {|{"v": 3, "op": "lint"}|} "bad_request"

(* ------------------------------------------------------------------ *)
(* Socket-level helpers *)

let temp_sock () =
  let path = Filename.temp_file "ifcsrv" ".sock" in
  (* temp_file creates a placeholder; the server unlinks stale paths
     before binding. *)
  path

let with_server ?(workers = 2) ?(cache_capacity = 256) ?(limits = Limits.default)
    ?shards ?(endpoints = `Unix) f =
  let sock = temp_sock () in
  let endpoints =
    match endpoints with
    | `Unix -> [ Conn.Unix_socket sock ]
    | `Tcp -> [ Conn.Tcp ("127.0.0.1", 0) ]
  in
  let shards =
    Option.value ~default:Server.default_config.Server.shards shards
  in
  let config =
    { Server.default_config with endpoints; workers; cache_capacity; limits; shards }
  in
  let server = fail_result (Server.create config) in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join thread;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f (List.hd endpoints) server)

let with_conn endpoint f =
  fail_result (Client.with_client ~retry_for:5. endpoint f)

let quick_program = "var x, y : integer;\nbegin x := 1; y := x end"

(* A small linked unit for the version-5 modsys op: one producer module
   feeding one consumer through a bounded export. *)
let quick_linked =
  "module producer\n\
   provides (out : class <= high)\n\
   requires (cfg : class >= low)\n\
   var out : integer class high;\n\
   begin out := cfg + 1 end\n\
   end\n\
   module consumer\n\
   requires (out : class >= low)\n\
   var sink : integer class high;\n\
   begin sink := out end\n\
   end\n\
   var cfg : integer class low;\n\
   begin cfg := 1 end"

let leaky_linked =
  "module leaker\n\
   provides (out : class <= low)\n\
   requires (secret : class >= low)\n\
   var out : integer class low;\n\
   begin out := secret end\n\
   end\n\
   var secret : integer class high;\n\
   begin secret := 1 end"

(* A check the worker chews on for ~100 ms: empirical noninterference
   single-steps this loop once per tested pair. *)
let slow_program =
  "var h, x, y : integer;\nbegin\n  x := 0;\n  while x < 4000 do x := x + 1 od;\n  y := x\nend"

let slow_binding = "h : high\nx : low\ny : low"

let slow_check ?deadline_ms client =
  Client.check client ~name:"slow" ~binding:slow_binding
    ~analyses:[ "ni" ] ~ni_pairs:1 ~ni_max_states:10_000_000 ?deadline_ms
    slow_program

(* The same slow check as one raw pipelined request line. *)
let slow_check_line ~id =
  Protocol.check_line ~id:(J.Int id) ~name:"slow" ~binding:slow_binding
    ~analyses:[ "ni" ] ~ni_pairs:1 ~ni_max_states:10_000_000 slow_program

let response_code response =
  match Protocol.response_error response with
  | Some (code, _) -> code
  | None -> "ok"

let stat_int path response =
  let rec walk json = function
    | [] -> Option.value ~default:(-1) (Jsonx.int_opt json)
    | key :: rest -> (
      match Jsonx.member key json with
      | Some v -> walk v rest
      | None -> -1)
  in
  walk response ("stats" :: path)

(* Raw pipelined conversation: write every line up front, then read
   response lines in arrival order. *)
let write_lines client lines =
  List.iter
    (fun line ->
      if not (Conn.write_line (Client.fd client) line) then
        Alcotest.fail "pipelined write failed")
    lines

let next_response client =
  match Conn.next_line (Client.reader client) with
  | `Line l -> l
  | `Eof -> Alcotest.fail "connection closed mid-pipeline"
  | `Oversized -> Alcotest.fail "oversized response"

let pipelined_exchange endpoint lines n =
  fail_result
    (Client.with_client ~retry_for:5. endpoint (fun client ->
         write_lines client lines;
         Ok (List.init n (fun _ -> next_response client))))

let response_id line =
  match Jsonx.parse line with
  | Ok json ->
    Option.value ~default:(-1)
      (Option.bind (Jsonx.member "id" json) Jsonx.int_opt)
  | Error _ -> -1

let response_code_of_line line =
  match Jsonx.parse line with
  | Ok json -> response_code json
  | Error _ -> "unparseable"

(* ------------------------------------------------------------------ *)
(* Concurrent clients get exactly the sequential verdicts. *)

(* Generated programs go over the wire as source text, so keep only
   those that survive the server's own pretty-print → parse →
   wellformedness path. *)
let corpus n =
  let rng = Prng.create 20260806 in
  let levels = Array.of_list two.Lattice.elements in
  let rec collect i acc remaining =
    if remaining = 0 then List.rev acc
    else
      let program = Gen.program rng Gen.default ~size:(1 + (i mod 15)) in
      let source = Fmt.str "%a" Ifc_lang.Pretty.pp_program program in
      match Parser.parse_program source with
      | Ok reparsed when Ifc_lang.Wellformed.errors reparsed = [] ->
        let binding_text =
          Sset.elements (Vars.all_vars program.Ast.body)
          |> List.map (fun v ->
                 Printf.sprintf "%s : %s" v
                   levels.(Prng.int rng (Array.length levels)))
          |> String.concat "\n"
        in
        collect (i + 1)
          ((Printf.sprintf "corpus:%d" i, source, binding_text) :: acc)
          (remaining - 1)
      | _ -> collect (i + 1) acc remaining
  in
  collect 0 [] n

let sequential_verdict (name, source, binding_text) =
  let program =
    match Parser.parse_program source with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse %s: %s" name (Fmt.str "%a" Parser.pp_error e)
  in
  let binding = fail_result (Binding.of_spec two binding_text) in
  Job.verdict_string
    (Job.run (Job.make ~id:0 ~name ~lattice:two ~binding ~analyses:[ Job.Cfm ] program))

let test_concurrent_matches_sequential () =
  let jobs = corpus 24 in
  let expected = List.map sequential_verdict jobs in
  with_server ~workers:3 @@ fun endpoint _server ->
  let one_client () =
    with_conn endpoint @@ fun client ->
    Ok
      (List.map
         (fun (name, source, binding) ->
           let response =
             fail_result
               (Client.check client ~name ~binding ~analyses:[ "cfm" ] source)
           in
           check ("ok: " ^ name) true (Protocol.response_ok response);
           Option.get (Protocol.response_verdict response))
         jobs)
  in
  let results = Array.make 4 [] in
  let threads =
    List.init 4 (fun i -> Thread.create (fun () -> results.(i) <- one_client ()) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i verdicts ->
      check (Printf.sprintf "client %d matches sequential" i) true
        (verdicts = expected))
    results

(* ------------------------------------------------------------------ *)
(* Deadlines, cancellation, robustness *)

let test_timeout_spares_other_requests () =
  with_server ~workers:2 @@ fun endpoint _server ->
  let timed_out = ref "unset" in
  let slow_thread =
    Thread.create
      (fun () ->
        with_conn endpoint @@ fun client ->
        let response = fail_result (slow_check ~deadline_ms:10 client) in
        timed_out := response_code response;
        (* The connection survives its own timeout. *)
        let* () = Client.ping client in
        Ok ())
      ()
  in
  (* Meanwhile a quick request on another connection completes. *)
  with_conn endpoint (fun client ->
      let response =
        fail_result (Client.check client ~name:"quick" quick_program)
      in
      check "quick request passes during slow one" true
        (Protocol.response_ok response);
      Ok ());
  Thread.join slow_thread;
  check_str "slow request timed out" "timeout" !timed_out

let test_expired_queued_job_is_cancelled () =
  (* One worker: a slow job occupies it, so a short-deadline request
     expires while still queued and the pool skips it entirely. Both go
     pipelined on one connection, slow first: the shard dispatches them
     in arrival order and the pool is FIFO, so the slow job is ahead of
     the quick one by construction, not by a sleep. *)
  with_server ~workers:1 @@ fun endpoint _server ->
  let responses =
    pipelined_exchange endpoint
      [
        slow_check_line ~id:1;
        Protocol.check_line ~id:(J.Int 2) ~deadline_ms:5 quick_program;
      ]
      2
  in
  let by_id id = List.find (fun line -> response_id line = id) responses in
  check_str "slow request completes" "ok" (response_code_of_line (by_id 1));
  check_str "queued request timed out" "timeout" (response_code_of_line (by_id 2));
  (* The worker increments jobs.cancelled when it dequeues the expired
     task, which can land just after the slow response is delivered —
     poll briefly rather than race it. *)
  with_conn endpoint (fun client ->
      let deadline = Unix.gettimeofday () +. 2. in
      let rec cancelled_count () =
        let stats = fail_result (Client.stats client) in
        let n = stat_int [ "counters"; "jobs.cancelled" ] stats in
        if n >= 1 || Unix.gettimeofday () > deadline then n
        else begin
          Thread.delay 0.02;
          cancelled_count ()
        end
      in
      check "cancelled job counted" true (cancelled_count () >= 1);
      Ok ())

let test_malformed_requests_keep_connection () =
  with_server @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      let expect code line =
        let response = fail_result (Client.request client line) in
        check_str ("code for " ^ line) code (response_code response)
      in
      expect "parse_error" "definitely not json";
      expect "parse_error" "[1, 2, 3]";
      expect "bad_version" {|{"op": "ping"}|};
      expect "bad_version" {|{"v": 99, "op": "ping"}|};
      expect "bad_request" {|{"v": 1, "op": "frobnicate"}|};
      expect "bad_request" {|{"v": 1, "op": "check"}|};
      expect "bad_request"
        {|{"v": 1, "op": "check", "program": "x := ("}|};
      (* After all that abuse, the same connection still serves. *)
      let* () = Client.ping client in
      Ok ())

let test_oversized_request_keeps_connection () =
  let limits = { Limits.default with Limits.max_request_bytes = 256 } in
  with_server ~limits @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      let big = String.make 10_000 'x' in
      let response =
        fail_result (Client.check client ~name:"big" big)
      in
      check_str "oversized rejected" "oversized" (response_code response);
      let* () = Client.ping client in
      let response = fail_result (Client.check client quick_program) in
      check "normal request works after oversized" true
        (Protocol.response_ok response);
      Ok ())

let test_connection_cap_answers_overloaded () =
  let limits = { Limits.default with Limits.max_connections = 1 } in
  with_server ~limits @@ fun endpoint _server ->
  with_conn endpoint (fun first ->
      (* A round-trip guarantees the first connection is registered. *)
      let* () = Client.ping first in
      let second = fail_result (Client.connect ~retry_for:5. endpoint) in
      Fun.protect ~finally:(fun () -> Client.close second) @@ fun () ->
      (* The server volunteers one overloaded line, then closes. *)
      let response = fail_result (Client.request second (Protocol.ping_line ())) in
      check_str "overloaded" "overloaded" (response_code response);
      check "then EOF" true
        (match Client.request second (Protocol.ping_line ()) with
        | Error _ -> true
        | Ok _ -> false);
      (* The first connection is unaffected. *)
      let* () = Client.ping first in
      Ok ())

let test_cert_over_the_wire () =
  with_server @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      (* Emit: the client declares the current protocol version and the
         response envelope echoes it back, carrying a parseable
         version-1 certificate. *)
      let response =
        fail_result (Client.cert_emit client ~name:"wire" quick_program)
      in
      check "emit ok" true (Protocol.response_ok response);
      check "version echoed" true
        (Jsonx.member "v" response = Some (J.Int Protocol.version));
      let cert_text =
        match Option.bind (Jsonx.member "cert" response) Jsonx.string_opt with
        | Some text -> text
        | None -> Alcotest.fail "emit response carries no cert"
      in
      (match Ifc_cert.Cert.parse cert_text with
      | Ok cert ->
        check "nodes over the wire" true (Ifc_cert.Cert.node_count cert > 0)
      | Error e ->
        Alcotest.failf "wire cert unparseable: %a" Ifc_cert.Cert.pp_parse_error e);
      (* Check: the emitted certificate validates against its program... *)
      let response =
        fail_result (Client.cert_check client ~cert:cert_text quick_program)
      in
      check "check ok" true (Protocol.response_ok response);
      check "valid" true (Jsonx.member "valid" response = Some (J.Bool true));
      (* ...but not against a different program (digest mismatch). *)
      let response =
        fail_result (Client.cert_check client ~cert:cert_text slow_program)
      in
      check "mismatch answered" true (Protocol.response_ok response);
      check "mismatch invalid" true
        (Jsonx.member "valid" response = Some (J.Bool false));
      (* Garbage certificates are a structured refusal, not a crash. *)
      let response =
        fail_result (Client.cert_check client ~cert:"not a cert" quick_program)
      in
      check_str "garbage cert" "bad_request" (response_code response);
      (* The connection survives all of it. *)
      let* () = Client.ping client in
      Ok ())

let test_lint_over_the_wire () =
  with_server @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      (* A clean program passes with an empty findings list in the report. *)
      let response = fail_result (Client.lint client ~name:"wire" quick_program) in
      check "lint ok" true (Protocol.response_ok response);
      check "version echoed" true
        (Jsonx.member "v" response = Some (J.Int Protocol.version));
      check "clean verdict" true
        (Jsonx.member "verdict" response = Some (J.String "pass"));
      let report response =
        match Jsonx.member "report" response with
        | Some r -> r
        | None -> Alcotest.fail "lint response carries no report"
      in
      check "no findings" true
        (Jsonx.member "findings" (report response) = Some (J.List []));
      (* A racy program fails and the report withdraws the race-freedom
         claim. *)
      let racy = "var x : integer;\nbegin cobegin x := 1 || x := 2 coend end" in
      let response = fail_result (Client.lint client racy) in
      check "racy answered" true (Protocol.response_ok response);
      check "racy verdict" true
        (Jsonx.member "verdict" response = Some (J.String "fail"));
      check "findings reported" true
        (match Jsonx.member "findings" (report response) with
        | Some (J.List (_ :: _)) -> true
        | _ -> false);
      check "race claim withdrawn" true
        (match Jsonx.member "claims" (report response) with
        | Some claims -> Jsonx.member "race_free" claims = Some (J.Bool false)
        | None -> false);
      (* A second identical request rides the digest cache. *)
      let response = fail_result (Client.lint client racy) in
      check "cache hit" true
        (Jsonx.member "cache" response = Some (J.String "hit"));
      (* Unparseable programs are a structured refusal, not a crash. *)
      let response = fail_result (Client.lint client "var") in
      check_str "parse refusal" "bad_request" (response_code response);
      let* () = Client.ping client in
      Ok ())

let test_v1_clients_unaffected () =
  with_server @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      (* A version-1 request still gets a version-1 envelope. *)
      let response =
        fail_result (Client.request client {|{"v": 1, "id": 1, "op": "ping"}|})
      in
      check "v1 ok" true (Protocol.response_ok response);
      check "v1 echoed" true (Jsonx.member "v" response = Some (J.Int 1));
      (* The version-2 op is refused politely at version 1. *)
      let response =
        fail_result
          (Client.request client {|{"v": 1, "op": "cert", "program": "p"}|})
      in
      check_str "cert needs v2" "bad_request" (response_code response);
      let* () = Client.ping client in
      Ok ())

let test_tcp_endpoint () =
  with_server ~endpoints:`Tcp @@ fun _endpoint server ->
  let port = Option.get (Server.port server) in
  check "ephemeral port bound" true (port > 0);
  with_conn (Conn.Tcp ("127.0.0.1", port)) (fun client ->
      let* () = Client.ping client in
      let response = fail_result (Client.check client quick_program) in
      check "check over tcp" true (Protocol.response_ok response);
      Ok ())

(* ------------------------------------------------------------------ *)
(* Graceful shutdown on SIGTERM *)

let test_sigterm_drains_in_flight () =
  (* A real SIGTERM delivered to this process, handled exactly as the
     CLI wires it (handler → request_stop), must let the in-flight slow
     request finish with a real response before [Server.run] returns.
     (The full separate-process version, including exit code 0, lives in
     the serve.t cram test — [Unix.fork] is off-limits once worker
     domains exist.) *)
  let sock = temp_sock () in
  let config =
    { Server.default_config with Server.endpoints = [ Conn.Unix_socket sock ] }
  in
  let server = fail_result (Server.create config) in
  let previous =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.request_stop server))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.signal Sys.sigterm previous);
      try Sys.remove sock with Sys_error _ -> ())
  @@ fun () ->
  let run_thread = Thread.create Server.run server in
  (* The slow request goes pipelined with a ping behind it. The shard
     handles a connection's lines in order and answers the ping at once,
     so when the ping's response arrives the slow request is in flight:
     only then TERM ourselves. *)
  let slow_response =
    fail_result
      (Client.with_client ~retry_for:5. (Conn.Unix_socket sock) (fun client ->
           write_lines client
             [ slow_check_line ~id:1; Protocol.ping_line ~id:(J.Int 2) () ];
           check_int "the ping answers first" 2 (response_id (next_response client));
           Unix.kill (Unix.getpid ()) Sys.sigterm;
           Ok (next_response client)))
  in
  Thread.join run_thread;
  check "run returned after SIGTERM" true (Server.stopped server);
  check_int "the slow request answers second" 1 (response_id slow_response);
  check_str "in-flight request drained, not dropped" "ok"
    (response_code_of_line slow_response);
  (* The drained server is really gone: new connections fail. *)
  check "socket closed after drain" true
    (match Client.connect (Conn.Unix_socket sock) with
    | Error _ -> true
    | Ok c ->
      Client.close c;
      false)

(* ------------------------------------------------------------------ *)
(* Stats and cache warmth *)

let test_stats_and_warm_cache () =
  with_server @@ fun endpoint _server ->
  with_conn endpoint (fun client ->
      let* () = Client.ping client in
      let run () =
        fail_result
          (Client.check client ~name:"same" ~binding:"x : low\ny : low"
             quick_program)
      in
      let first = run () in
      check_str "first is a miss" "miss"
        (Option.get (Jsonx.mem_string "cache" first));
      for _ = 1 to 4 do
        let warm = run () in
        check_str "repeat is a hit" "hit"
          (Option.get (Jsonx.mem_string "cache" warm));
        check_str "warm verdict agrees"
          (Option.get (Protocol.response_verdict first))
          (Option.get (Protocol.response_verdict warm))
      done;
      let stats = fail_result (Client.stats client) in
      check "uptime counted" true (stat_int [ "uptime_ns" ] stats > 0);
      check_int "one miss" 1 (stat_int [ "cache"; "misses" ] stats);
      check_int "four hits" 4 (stat_int [ "cache"; "hits" ] stats);
      (* PROTOCOL.md splits entry loss by cause. Both fields are always
         present in the cache object (stat_int answers -1 for absent
         keys): an idle cache reports zero evictions (capacity
         pressure) and zero invalidations (explicit removal). *)
      check_int "evictions present and zero" 0
        (stat_int [ "cache"; "evictions" ] stats);
      check_int "invalidations present and zero" 0
        (stat_int [ "cache"; "invalidations" ] stats);
      check_int "checks counted" 5 (stat_int [ "counters"; "op.check" ] stats);
      check "requests counted" true (stat_int [ "counters"; "requests" ] stats >= 6);
      (* Untouched counters are simply absent from the snapshot. *)
      check "no errors" true (stat_int [ "counters"; "errors" ] stats <= 0);
      check "latency observed" true (stat_int [ "latency"; "count" ] stats >= 5);
      check "a connection is active" true
        (stat_int [ "active_connections" ] stats >= 1);
      (* 100% warm hit rate on repeated identical requests, measured as
         a stats delta. *)
      let before = stat_int [ "cache"; "hits" ] stats in
      for _ = 1 to 10 do
        ignore (run ())
      done;
      let stats = fail_result (Client.stats client) in
      check_int "10 more hits" (before + 10) (stat_int [ "cache"; "hits" ] stats);
      check_int "still one miss" 1 (stat_int [ "cache"; "misses" ] stats);
      Ok ())

(* ------------------------------------------------------------------ *)
(* Protocol v4: exhaustive version gate, pipelining, backpressure *)

(* The deterministic fault-injection plant: on a server created while
   [f] runs, any pooled job whose name starts with "stall" sleeps [ms] on
   its worker. *)
let with_stall ms f =
  Unix.putenv "IFC_PLANT" (Printf.sprintf "stall:%d" ms);
  Fun.protect ~finally:(fun () -> Unix.putenv "IFC_PLANT" "") f

(* A check request for a program no other test submits, so its first
   submission is always a cache miss. *)
let stall_check_line ~v ~id ~salt ?deadline_ms () =
  let program =
    J.json_to_string
      (J.String
         (Printf.sprintf "var s, t : integer;\nbegin s := %d; t := s end" salt))
  in
  let deadline =
    match deadline_ms with
    | Some ms -> Printf.sprintf {|, "deadline_ms": %d|} ms
    | None -> ""
  in
  Printf.sprintf
    {|{"v": %d, "id": %d, "op": "check", "name": "stall-%d", "program": %s%s}|}
    v id salt program deadline

let test_version_gate_exhaustive () =
  with_server ~workers:1 @@ fun _endpoint server ->
  let handle line = Server.handle server (`Line line) in
  (* The version digit is at byte 5 of every envelope; masking it — and
     the per-request timing field — is how we assert responses are
     byte-identical across versions. *)
  let mask line =
    let line = String.mapi (fun i c -> if i = 5 then 'V' else c) line in
    let key = "\"duration_ns\":" in
    let n = String.length line and k = String.length key in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + k <= n && String.sub line !i k = key then begin
        Buffer.add_string buf key;
        Buffer.add_char buf '_';
        i := !i + k;
        while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
          incr i
        done
      end
      else begin
        Buffer.add_char buf line.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  (* ping: available and byte-stable at every version. *)
  for v = 1 to 5 do
    check_str
      (Printf.sprintf "ping v%d" v)
      (Printf.sprintf {|{"v":%d,"id":7,"ok":true,"op":"ping"}|} v)
      (handle (Printf.sprintf {|{"v": %d, "id": 7, "op": "ping"}|} v))
  done;
  (* stats: available at every version, envelope prefix pinned. *)
  for v = 1 to 5 do
    let r = handle (Printf.sprintf {|{"v": %d, "op": "stats"}|} v) in
    let prefix =
      Printf.sprintf {|{"v":%d,"id":null,"ok":true,"op":"stats",|} v
    in
    check
      (Printf.sprintf "stats v%d prefix" v)
      true
      (String.length r >= String.length prefix
      && String.sub r 0 (String.length prefix) = prefix)
  done;
  (* check: available at every version. Prime the cache once, then the
     hit responses at v1 through v4 must agree byte for byte modulo the
     echoed version digit. *)
  let check_req v =
    Printf.sprintf {|{"v": %d, "id": 9, "op": "check", "program": %s}|} v
      (J.json_to_string (J.String quick_program))
  in
  ignore (handle (check_req 1));
  let baseline = handle (check_req 1) in
  check "check hit baseline ok" true
    (match Jsonx.parse baseline with
    | Ok json -> Protocol.response_ok json
    | Error _ -> false);
  for v = 2 to 5 do
    check_str
      (Printf.sprintf "check v%d envelope identical" v)
      (mask baseline)
      (mask (handle (check_req v)))
  done;
  (* At every version the hit's digest is the job key of the spec the
     server builds: lattice two, binding from the declarations, cfm. *)
  let key =
    let two = Option.get (Ifc_lattice.Builtin.find "two") in
    let p = Result.get_ok (Parser.parse_program quick_program) in
    Job.digest
      (Job.make ~id:0 ~name:"" ~lattice:two
         ~binding:(Result.get_ok (Binding.of_program two p))
         ~analyses:[ Job.Cfm ] p)
  in
  for v = 1 to 5 do
    check_str
      (Printf.sprintf "check v%d digest is the job key" v)
      key
      (match Jsonx.parse (handle (check_req v)) with
      | Ok json -> Option.value (Jsonx.mem_string "digest" json) ~default:"-"
      | Error e -> e)
  done;
  (* cert: gated at version 2, refusal message verbatim. *)
  let cert_req v =
    Printf.sprintf {|{"v": %d, "op": "cert", "program": %s}|} v
      (J.json_to_string (J.String quick_program))
  in
  check_str "cert v1 refused verbatim"
    {|{"v":1,"id":null,"ok":false,"error":{"code":"bad_request","message":"op \"cert\" requires protocol version 2 (request declared 1)"}}|}
    (handle (cert_req 1));
  ignore (handle (cert_req 2));
  let cert_baseline = handle (cert_req 2) in
  check "cert hit baseline ok" true
    (match Jsonx.parse cert_baseline with
    | Ok json -> Protocol.response_ok json
    | Error _ -> false);
  for v = 3 to 5 do
    check_str
      (Printf.sprintf "cert v%d envelope identical" v)
      (mask cert_baseline)
      (mask (handle (cert_req v)))
  done;
  (* lint: gated at version 3, refusal messages verbatim per declared
     version. *)
  let lint_req v =
    Printf.sprintf {|{"v": %d, "op": "lint", "program": %s}|} v
      (J.json_to_string (J.String quick_program))
  in
  check_str "lint v1 refused verbatim"
    {|{"v":1,"id":null,"ok":false,"error":{"code":"bad_request","message":"op \"lint\" requires protocol version 3 (request declared 1)"}}|}
    (handle (lint_req 1));
  check_str "lint v2 refused verbatim"
    {|{"v":2,"id":null,"ok":false,"error":{"code":"bad_request","message":"op \"lint\" requires protocol version 3 (request declared 2)"}}|}
    (handle (lint_req 2));
  ignore (handle (lint_req 3));
  let lint_baseline = handle (lint_req 3) in
  check_str "lint v4 envelope identical" (mask lint_baseline)
    (mask (handle (lint_req 4)));
  check_str "lint v5 envelope identical" (mask lint_baseline)
    (mask (handle (lint_req 5)));
  (* modsys: gated at version 5, refusal messages verbatim per declared
     version. *)
  let modsys_req v =
    Printf.sprintf
      {|{"v": %d, "op": "modsys", "action": "summary", "program": %s}|} v
      (J.json_to_string (J.String quick_linked))
  in
  for v = 1 to 4 do
    check_str
      (Printf.sprintf "modsys v%d refused verbatim" v)
      (Printf.sprintf
         {|{"v":%d,"id":null,"ok":false,"error":{"code":"bad_request","message":"op \"modsys\" requires protocol version 5 (request declared %d)"}}|}
         v v)
      (handle (modsys_req v))
  done;
  check "modsys v5 accepted" true
    (match Jsonx.parse (handle (modsys_req 5)) with
    | Ok json -> Protocol.response_ok json
    | Error _ -> false);
  (* Envelope failures: messages and envelopes verbatim. The response
     version for requests that never declared a usable version is the
     server's own. *)
  check_str "missing v verbatim"
    {|{"v":5,"id":null,"ok":false,"error":{"code":"bad_version","message":"missing \"v\" (protocol version) field"}}|}
    (handle {|{"op": "ping"}|});
  check_str "unsupported v verbatim"
    {|{"v":5,"id":3,"ok":false,"error":{"code":"bad_version","message":"unsupported protocol version (this server speaks 1 through 5)"}}|}
    (handle {|{"v": 99, "id": 3, "op": "ping"}|});
  check_str "v0 also unsupported"
    {|{"v":5,"id":null,"ok":false,"error":{"code":"bad_version","message":"unsupported protocol version (this server speaks 1 through 5)"}}|}
    (handle {|{"v": 0, "op": "ping"}|});
  for v = 1 to 5 do
    check_str
      (Printf.sprintf "unknown op v%d verbatim" v)
      (Printf.sprintf
         {|{"v":%d,"id":null,"ok":false,"error":{"code":"bad_request","message":"unknown op \"frobnicate\" (use check, cert, lint, modsys, stats, or ping)"}}|}
         v)
      (handle (Printf.sprintf {|{"v": %d, "op": "frobnicate"}|} v));
    check_str
      (Printf.sprintf "missing op v%d verbatim" v)
      (Printf.sprintf
         {|{"v":%d,"id":null,"ok":false,"error":{"code":"bad_request","message":"missing string \"op\" field"}}|}
         v)
      (handle (Printf.sprintf {|{"v": %d}|} v))
  done

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A requested connection/client count at or above FD_SETSIZE must be
   refused with a configuration error up front, never surface as a raw
   EINVAL out of Unix.select mid-run. *)
let test_fd_setsize_guard () =
  check "0 (unlimited) passes" true (Limits.check_fd_budget ~what:"x" 0 = Ok ());
  check "1023 passes" true
    (Limits.check_fd_budget ~what:"x" (Limits.fd_setsize - 1) = Ok ());
  (match Limits.check_fd_budget ~what:"--clients" Limits.fd_setsize with
  | Error msg ->
    check "message names the knob" true (contains_sub msg "--clients");
    check "message names FD_SETSIZE" true (contains_sub msg "FD_SETSIZE");
    check "message never mentions EINVAL" false (contains_sub msg "EINVAL")
  | Ok () -> Alcotest.fail "FD_SETSIZE clients must be rejected");
  let config =
    {
      Server.default_config with
      Server.endpoints = [ Conn.Unix_socket (temp_sock ()) ];
      limits = { Limits.default with Limits.max_connections = 4096 };
    }
  in
  match Server.create config with
  | Error msg ->
    check "serve refuses oversized max-connections" true
      (contains_sub msg "FD_SETSIZE")
  | Ok server ->
    Server.request_stop server;
    Alcotest.fail "server accepted max_connections above FD_SETSIZE"

(* There is one server engine: a server needs at least one connection
   shard. *)
let test_zero_shards_rejected () =
  let config =
    {
      Server.default_config with
      Server.endpoints = [ Conn.Unix_socket (temp_sock ()) ];
      shards = 0;
    }
  in
  match Server.create config with
  | Error msg -> check "message names the shard count" true (contains_sub msg "shard")
  | Ok server ->
    Server.request_stop server;
    Alcotest.fail "server accepted zero connection shards"

(* The tests that cross FD_SETSIZE hold [n] descriptors at once; a
   process limited below that (macOS defaults to 256) skips them. *)
let skip_without_descriptors n =
  let r, w = Unix.pipe () in
  let held = ref [ r; w ] in
  Fun.protect ~finally:(fun () -> List.iter Unix.close !held) @@ fun () ->
  try
    for _ = 1 to n do
      held := Unix.dup r :: !held
    done
  with Unix.Unix_error (Unix.EMFILE, _, _) -> Alcotest.skip ()

(* One response line from [fd] by blocking reads under a receive
   timeout: no select, whose fd sets cannot hold this process's
   descriptors past FD_SETSIZE. [None] when the server stays silent or
   hangs up. *)
let read_line_within ~seconds fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds;
  let line = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> None
    | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents line)
    | _ ->
      Buffer.add_char line (Bytes.get byte 0);
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  in
  go ()

(* A server allowed more connections than select can hold must refuse
   the connection whose descriptor select cannot take, not deal it to a
   shard whose select then fails and strands every connection the shard
   serves. Server and clients share this process, so each connection
   takes two descriptors and about 510 of them cross FD_SETSIZE. *)
let test_connections_past_fd_setsize () =
  skip_without_descriptors 1300;
  let limits = { Limits.default with Limits.max_connections = 0 } in
  with_server ~workers:1 ~shards:1 ~limits @@ fun endpoint _server ->
  let addr = fail_result (Conn.sockaddr_of_endpoint endpoint) in
  let held = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held)
  @@ fun () ->
  (* Read even when the write fails: a refused connection is answered
     and closed before the server reads anything. *)
  let ask fd line =
    ignore (Conn.write_line fd line);
    Option.map response_code_of_line (read_line_within ~seconds:3. fd)
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    held := fd :: !held;
    Unix.connect fd addr;
    fd
  in
  let first = connect () in
  check_str "the first connection answers" "ok"
    (Option.value ~default:"unanswered" (ask first (Protocol.ping_line ())));
  (* Stop at the first silence: past it, at the parent, every later
     connection waits out its timeout too. *)
  let rec open_more k ok overloaded =
    if k = 0 then (ok, overloaded)
    else
      match ask (connect ()) (Protocol.ping_line ()) with
      | Some "ok" -> open_more (k - 1) (ok + 1) overloaded
      | Some "overloaded" -> open_more (k - 1) ok (overloaded + 1)
      | Some code -> Alcotest.failf "connection answered %s" code
      | None -> Alcotest.failf "connection %d went unanswered" (ok + overloaded + 1)
  in
  let ok, overloaded = open_more 599 0 0 in
  check "most connections served" true (ok > 400);
  check "connections past FD_SETSIZE refused" true (overloaded > 0);
  check_str "the first connection still answers" "ok"
    (Option.value ~default:"unanswered" (ask first (Protocol.ping_line ())));
  if not (Conn.write_line first (Protocol.stats_line ())) then
    Alcotest.fail "stats write failed";
  match Option.map Jsonx.parse (read_line_within ~seconds:3. first) with
  | Some (Ok stats) ->
    check_int "stats reports the select limit" Limits.fd_setsize
      (stat_int [ "fd_setsize" ] stats);
    check_int "stats reports the connection cap" 0
      (stat_int [ "max_connections" ] stats);
    check_int "every refusal counted" overloaded
      (stat_int [ "counters"; "error.overloaded" ] stats)
  | _ -> Alcotest.fail "no stats response"

(* Clients read without select too: a load generator with a thousand
   connections holds descriptors past FD_SETSIZE in one process. *)
let test_client_reader_past_fd_setsize () =
  skip_without_descriptors (Limits.fd_setsize + 16);
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dups = List.init (Limits.fd_setsize + 8) (fun _ -> Unix.dup a) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close (a :: b :: dups))
  @@ fun () ->
  (* Descriptors are allocated lowest first, so the last dup is numbered
     at least FD_SETSIZE. *)
  let high = List.nth dups (List.length dups - 1) in
  check "line written" true (Conn.write_line b "pong");
  match Conn.next_line (Conn.reader high) with
  | `Line l -> check_str "line read" "pong" l
  | `Eof | `Oversized -> Alcotest.fail "no line"

let test_modsys_ops () =
  with_server ~workers:1 @@ fun _endpoint server ->
  let handle line = Server.handle server (`Line line) in
  let json_of line =
    match Jsonx.parse line with
    | Ok j -> j
    | Error _ -> Alcotest.failf "unparseable response: %s" line
  in
  let str_member key json =
    match Jsonx.member key json with Some (J.String s) -> Some s | _ -> None
  in
  (* link: pooled and cached, response carries the ifc-cert 2 text. *)
  let link_line = Protocol.modsys_line ~name:"quick" quick_linked in
  let r1 = json_of (handle link_line) in
  check "link ok" true (Protocol.response_ok r1);
  check "link verdict pass" true (Protocol.response_verdict r1 = Some "pass");
  check "link action echoed" true (str_member "action" r1 = Some "link");
  (match str_member "cert" r1 with
  | Some text ->
    check "cert is version 2" true
      (String.length text >= 10 && String.sub text 0 10 = "ifc-cert 2")
  | None -> Alcotest.fail "link response carries no cert");
  let r2 = json_of (handle link_line) in
  check "second link is a cache hit" true (str_member "cache" r2 = Some "hit");
  (* A leaking unit fails the link without erroring. *)
  let leak = json_of (handle (Protocol.modsys_line ~name:"leak" leaky_linked)) in
  check "leak link ok envelope" true (Protocol.response_ok leak);
  check "leak link verdict fail" true (Protocol.response_verdict leak = Some "fail");
  check "leak link has no cert" true (Jsonx.member "cert" leak = None);
  (* summary: one node per module, inline. *)
  let s =
    json_of (handle (Protocol.modsys_line ~action:"summary" quick_linked))
  in
  check "summary ok" true (Protocol.response_ok s);
  (match Jsonx.member "modules" s with
  | Some (J.List mods) -> check_int "two summary nodes" 2 (List.length mods)
  | _ -> Alcotest.fail "summary response carries no modules list");
  (* refine: compare a replacement module against the unit's first
     module. A body that leaks the import is rejected. *)
  let base_module =
    "module producer\n\
     provides (out : class <= high)\n\
     requires (cfg : class >= low)\n\
     var out : integer class high;\n\
     begin out := cfg + 1 end\n\
     end"
  in
  let refine_line = handle
      (Protocol.modsys_line ~action:"refine" ~replacement:base_module
         quick_linked)
  in
  let refine_ok = json_of refine_line in
  if not (Protocol.response_ok refine_ok) then
    Alcotest.failf "refine response: %s" refine_line;
  check "refine self ok" true (Protocol.response_ok refine_ok);
  check "refine self valid" true
    (Jsonx.member "valid" refine_ok = Some (J.Bool true));
  (* Parse errors surface as bad_request, not internal faults. *)
  (match
     Jsonx.parse (handle (Protocol.modsys_line ~name:"bad" "module oops"))
   with
  | Ok bad ->
    check "garbled unit refused" true
      (match Protocol.response_error bad with
      | Some ("bad_request", _) -> true
      | _ -> false)
  | Error _ -> Alcotest.fail "unparseable bad_request response")

let test_pipelined_out_of_order () =
  (* A stalled pooled request must not block a later request on the
     same pipelined connection: the ping overtakes it. *)
  with_stall 150 @@ fun () ->
  with_server ~workers:1 @@ fun endpoint _server ->
  let lines =
    [
      stall_check_line ~v:4 ~id:1 ~salt:9001 ();
      Printf.sprintf {|{"v": 4, "id": 2, "op": "ping"}|};
    ]
  in
  let responses = pipelined_exchange endpoint lines 2 in
  check_int "two responses" 2 (List.length responses);
  check_int "ping overtakes the stalled check" 2
    (response_id (List.nth responses 0));
  check_int "stalled check answers second" 1
    (response_id (List.nth responses 1));
  List.iter
    (fun line -> check_str "both ok" "ok" (response_code_of_line line))
    responses

let test_serial_clients_stay_ordered () =
  (* The same two requests declared at version 3 flow through the
     serial path: responses arrive in request order even though the
     first one stalls. *)
  with_stall 100 @@ fun () ->
  with_server ~workers:1 @@ fun endpoint _server ->
  let lines =
    [
      stall_check_line ~v:3 ~id:1 ~salt:9002 ();
      Printf.sprintf {|{"v": 3, "id": 2, "op": "ping"}|};
    ]
  in
  let responses = pipelined_exchange endpoint lines 2 in
  check_int "stalled check answers first" 1 (response_id (List.nth responses 0));
  check_int "ping answers second" 2 (response_id (List.nth responses 1))

let test_backpressure_inflight_cap () =
  (* max_inflight 2: with both slots stalled on the worker, further
     pipelined requests get a structured overloaded refusal while the
     earlier in-flight requests still complete. *)
  with_stall 200 @@ fun () ->
  with_server ~workers:2
    ~limits:{ Limits.default with Limits.max_inflight = 2 }
  @@ fun endpoint _server ->
  let lines =
    List.init 6 (fun i -> stall_check_line ~v:4 ~id:i ~salt:(9100 + i) ())
  in
  let responses = pipelined_exchange endpoint lines 6 in
  let codes = List.map response_code_of_line responses in
  let count code = List.length (List.filter (( = ) code) codes) in
  check_int "two in-flight complete" 2 (count "ok");
  check_int "four refused as overloaded" 4 (count "overloaded");
  (* The refusal message names the limit. *)
  List.iter
    (fun line ->
      if response_code_of_line line = "overloaded" then
        check "refusal names the limit" true
          (match Jsonx.parse line with
          | Ok json -> (
            match Protocol.response_error json with
            | Some (_, msg) ->
              msg = "connection is at its 2 in-flight request limit"
            | None -> false)
          | Error _ -> false))
    responses;
  (* Refusals are immediate; the stalled completions arrive last. *)
  check_str "refusal arrives before completions" "overloaded"
    (response_code_of_line (List.hd responses))

let test_deadline_under_pipelining () =
  (* A pipelined request's deadline fires while it is stalled on the
     worker; the connection survives and later requests are unharmed. *)
  with_stall 300 @@ fun () ->
  with_server ~workers:1 @@ fun endpoint _server ->
  let lines =
    [
      stall_check_line ~v:4 ~id:1 ~salt:9200 ~deadline_ms:20 ();
      Printf.sprintf {|{"v": 4, "id": 2, "op": "ping"}|};
    ]
  in
  let responses = pipelined_exchange endpoint lines 2 in
  let by_id id =
    List.find (fun line -> response_id line = id) responses
  in
  check_str "stalled request times out" "timeout"
    (response_code_of_line (by_id 1));
  check "timeout names the deadline" true
    (match Jsonx.parse (by_id 1) with
    | Ok json -> (
      match Protocol.response_error json with
      | Some (_, msg) -> msg = "request exceeded its 20 ms deadline"
      | None -> false)
    | Error _ -> false);
  check_str "later request unharmed" "ok" (response_code_of_line (by_id 2))

let test_mid_pipeline_disconnect () =
  (* A client that floods pipelined requests and vanishes must not hurt
     the server or other connections. *)
  with_stall 100 @@ fun () ->
  with_server ~workers:1 @@ fun endpoint _server ->
  (match Client.connect ~retry_for:5. endpoint with
  | Error msg -> Alcotest.fail msg
  | Ok client ->
    let fd = Client.fd client in
    List.iter
      (fun i -> ignore (Conn.write_line fd (stall_check_line ~v:4 ~id:i ~salt:(9300 + i) ())))
      [ 0; 1; 2; 3; 4 ];
    (* Vanish with everything still in flight. *)
    Client.close client);
  (* The server keeps serving. *)
  with_conn endpoint (fun client ->
      let* () = Client.ping client in
      let stats = fail_result (Client.stats client) in
      check "server still answers stats" true
        (stat_int [ "counters"; "requests" ] stats >= 1);
      Ok ())

let test_oversized_mid_pipeline () =
  (* An oversized line between two pipelined requests gets its own
     structured refusal and the connection keeps going. *)
  with_server
    ~limits:{ Limits.default with Limits.max_request_bytes = 512 }
  @@ fun endpoint _server ->
  let lines =
    [
      {|{"v": 4, "id": 1, "op": "ping"}|};
      String.concat ""
        [ {|{"v": 4, "id": 99, "op": "check", "program": "|};
          String.make 2048 'x'; {|"}|} ];
      {|{"v": 4, "id": 2, "op": "ping"}|};
    ]
  in
  let responses = pipelined_exchange endpoint lines 3 in
  let codes = List.map response_code_of_line responses in
  let count code = List.length (List.filter (( = ) code) codes) in
  check_int "two pings ok" 2 (count "ok");
  check_int "one oversized refusal" 1 (count "oversized")

let test_loadgen_counts_refused_connections () =
  (* One connection slot, held by whichever client gets it first for as
     long as its stalled requests take, so the other clients are refused
     at accept. Each client either completes all its requests or is
     counted once as a connect error; a refusal is never a protocol
     error. *)
  with_stall 30 @@ fun () ->
  with_server ~workers:1
    ~limits:{ Limits.default with Limits.max_connections = 1 }
  @@ fun endpoint _server ->
  let clients = 4 and requests = 3 in
  let r =
    Loadgen.run
      {
        (Loadgen.default_config endpoint) with
        Loadgen.clients;
        window = 1;
        requests;
        name = "stall-refused";
      }
  in
  check_int "no protocol errors" 0 r.Loadgen.protocol_errors;
  check "some client was refused" true (r.Loadgen.connect_errors >= 1);
  check_int "every client completes or is one connect error"
    (clients * requests)
    (r.Loadgen.ok + r.Loadgen.failed + (requests * r.Loadgen.connect_errors))

let test_oracle_engines_agree () =
  (* The acceptance oracle: a 500-request seeded stream pipelined
     against the sharded engine produces byte-identical responses per id
     to sequential [Server.handle] calls. *)
  match Ifc_server.Oracle.run ~requests:500 () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check_int "all requests compared" 500 r.Ifc_server.Oracle.compared;
    (match r.Ifc_server.Oracle.divergences with
    | [] -> ()
    | d :: _ ->
      Alcotest.failf "engine diverged at id %d:\n  request   %s\n  reference %s\n  sharded   %s"
        d.Ifc_server.Oracle.id d.Ifc_server.Oracle.request
        d.Ifc_server.Oracle.reference d.Ifc_server.Oracle.sharded)

(* QCheck: on a pipelined connection, every request is answered exactly
   once with a response correlated to its id and carrying its op — no
   cross-talk — whatever the shard count. *)
let pipelined_framing_test ~shards =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 25) (pair (int_range 0 3) (int_range 0 5)))
        (int_range 1 6))
  in
  let prop (ops, window) =
    with_server ~workers:1 ~shards (fun endpoint _server ->
        let op_name = function
          | 0 -> "ping"
          | 1 -> "check"
          | 2 -> "cert"
          | _ -> "lint"
        in
        let line i (op, variant) =
          match op with
          | 0 -> Printf.sprintf {|{"v": 4, "id": %d, "op": "ping"}|} i
          | op ->
            Printf.sprintf {|{"v": 4, "id": %d, "op": "%s", "program": %s}|} i
              (op_name op)
              (J.json_to_string
                 (J.String (Loadgen.program_variant variant)))
        in
        let requests = List.mapi line ops in
        (* Window-limited send interleaved with reads, like a real
           pipelined client. *)
        let responses =
          fail_result
            (Client.with_client ~retry_for:5. endpoint (fun client ->
                 let fd = Client.fd client and reader = Client.reader client in
                 let todo = ref requests
                 and inflight = ref 0
                 and got = ref [] in
                 let send () =
                   while !inflight < window && !todo <> [] do
                     (match !todo with
                     | line :: rest ->
                       if not (Conn.write_line fd line) then
                         Alcotest.fail "write failed";
                       todo := rest;
                       incr inflight
                     | [] -> ())
                   done
                 in
                 send ();
                 while List.length !got < List.length requests do
                   (match Conn.next_line reader with
                   | `Line l ->
                     got := l :: !got;
                     decr inflight
                   | _ -> Alcotest.fail "connection broke mid-stream");
                   send ()
                 done;
                 Ok !got))
        in
        (* Exactly one response per id, each echoing its request's op. *)
        let expected = List.mapi (fun i (op, _) -> (i, op_name op)) ops in
        List.length responses = List.length expected
        && List.for_all
             (fun (i, op) ->
               List.length
                 (List.filter
                    (fun line ->
                      response_id line = i
                      && (match Jsonx.parse line with
                         | Ok json ->
                           Jsonx.mem_string "op" json = Some op
                           && Protocol.response_ok json
                         | Error _ -> false))
                    responses)
               = 1)
             expected)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "pipelined framing (%d shard%s)" shards
                (if shards = 1 then "" else "s"))
       ~count:6
       (QCheck.make gen) prop)

(* ------------------------------------------------------------------ *)

let quick name f = Alcotest.test_case name `Quick f

let suite =
  ( "server",
    [
      quick "jsonx round-trips values" test_jsonx_roundtrip_values;
      quick "jsonx round-trips escaping" test_jsonx_roundtrip_escaping;
      quick "jsonx decodes unicode escapes" test_jsonx_unicode_escapes;
      quick "jsonx rejects malformed input" test_jsonx_rejects;
      quick "jsonx accessors" test_jsonx_accessors;
      quick "latency histogram" test_histogram;
      quick "sink flushes whole lines" test_sink_flushes_every_event;
      quick "with_sink closes on raise" test_with_sink_closes_on_raise;
      quick "protocol parsing" test_protocol_parse;
      quick "concurrent clients match sequential" test_concurrent_matches_sequential;
      quick "timeout spares other requests" test_timeout_spares_other_requests;
      quick "expired queued job is cancelled" test_expired_queued_job_is_cancelled;
      quick "malformed requests keep the connection" test_malformed_requests_keep_connection;
      quick "oversized request keeps the connection" test_oversized_request_keeps_connection;
      quick "connection cap answers overloaded" test_connection_cap_answers_overloaded;
      quick "cert emit and check over the wire" test_cert_over_the_wire;
      quick "lint over the wire" test_lint_over_the_wire;
      quick "version-1 clients unaffected" test_v1_clients_unaffected;
      quick "tcp endpoint with ephemeral port" test_tcp_endpoint;
      quick "sigterm drains in-flight requests" test_sigterm_drains_in_flight;
      quick "stats and warm cache" test_stats_and_warm_cache;
      quick "version gate exhaustive" test_version_gate_exhaustive;
      quick "modsys ops over the wire" test_modsys_ops;
      quick "FD_SETSIZE guard" test_fd_setsize_guard;
      quick "zero shards rejected" test_zero_shards_rejected;
      quick "connections past FD_SETSIZE are refused"
        test_connections_past_fd_setsize;
      quick "client reader past FD_SETSIZE" test_client_reader_past_fd_setsize;
      quick "pipelined responses out of order" test_pipelined_out_of_order;
      quick "serial clients stay ordered" test_serial_clients_stay_ordered;
      quick "backpressure refuses over max-inflight" test_backpressure_inflight_cap;
      quick "deadline fires under pipelining" test_deadline_under_pipelining;
      quick "mid-pipeline disconnect is harmless" test_mid_pipeline_disconnect;
      quick "oversized mid-pipeline request" test_oversized_mid_pipeline;
      quick "differential oracle: engines agree" test_oracle_engines_agree;
      pipelined_framing_test ~shards:1;
      pipelined_framing_test ~shards:2;
      pipelined_framing_test ~shards:4;
      quick "loadgen counts refused connections once"
        test_loadgen_counts_refused_connections;
    ] )
