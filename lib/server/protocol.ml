(* The versioned newline-delimited JSON wire protocol (see PROTOCOL.md). *)

module J = Ifc_pipeline.Telemetry

(* Version 2 added the cert op; version 3 the lint op; version 4 added
   no ops at all — it is a transport upgrade: a connection that declares
   v=4 may pipeline many requests and must correlate responses by [id],
   because they may come back out of order. Version 5 added the modsys
   op (module summaries, summary-based linking, refinement checks).
   Older requests remain valid and get byte-identical older responses:
   responses echo the request's declared version, and no pre-existing
   op's envelope changed shape. The [digest] field's value, the job key,
   is one at every version (PROTOCOL.md, "The job key"). *)
let version = 5
let min_version = 1

(* ------------------------------------------------------------------ *)
(* Error codes *)

type error_code =
  | Parse_error
  | Bad_version
  | Bad_request
  | Oversized
  | Overloaded
  | Timeout
  | Internal

let code_string = function
  | Parse_error -> "parse_error"
  | Bad_version -> "bad_version"
  | Bad_request -> "bad_request"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Requests *)

type check_request = {
  name : string;
  program : string;
  lattice : string;
  binding : string option;
  analyses : string list;
  self_check : bool;
  ni_pairs : int;
  ni_max_states : int;
  deadline_ms : int option;
}

type cert_action = Cert_emit | Cert_check of string

type cert_request = {
  cert_name : string;
  cert_program : string;
  cert_lattice : string;
  cert_binding : string option;
  action : cert_action;
  cert_deadline_ms : int option;
}

type lint_request = {
  lint_name : string;
  lint_program : string;
  lint_deadline_ms : int option;
}

type modsys_action = Mod_summary | Mod_link | Mod_refine of string

type modsys_request = {
  mod_name : string;
  mod_program : string;
  mod_lattice : string;
  mod_action : modsys_action;
  mod_deadline_ms : int option;
}

type op =
  | Check of check_request
  | Cert of cert_request
  | Lint of lint_request
  | Modsys of modsys_request
  | Stats
  | Ping

(* [pipelined] is true only when the request successfully declared
   version 4: those responses may be reordered, everything else —
   including unparseable lines, which declared nothing — keeps the
   strict request-order guarantee of versions 1–3. *)
type parsed = {
  v : int;
  id : J.json;
  pipelined : bool;
  op : (op, error_code * string) result;
}

let parse_check json =
  match Jsonx.mem_string "program" json with
  | None -> Error (Bad_request, "check requires a string \"program\" field")
  | Some program -> (
    let analyses =
      match Jsonx.member "analyses" json with
      | None -> Ok [ "cfm" ]
      | Some (J.String csv) ->
        let names =
          String.split_on_char ',' csv |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if names = [] then Error (Bad_request, "empty \"analyses\" list")
        else Ok names
      | Some (J.List items) -> (
        match
          List.fold_left
            (fun acc item ->
              match (acc, Jsonx.string_opt item) with
              | Ok acc, Some s -> Ok (s :: acc)
              | (Error _ as e), _ -> e
              | Ok _, None ->
                Error (Bad_request, "\"analyses\" must be a list of strings"))
            (Ok []) items
        with
        | Ok [] -> Error (Bad_request, "empty \"analyses\" list")
        | Ok names -> Ok (List.rev names)
        | Error _ as e -> e)
      | Some _ ->
        Error (Bad_request, "\"analyses\" must be a list of strings or a CSV string")
    in
    let deadline_ms =
      match Jsonx.member "deadline_ms" json with
      | None -> Ok None
      | Some v -> (
        match Jsonx.int_opt v with
        | Some ms when ms > 0 -> Ok (Some ms)
        | _ -> Error (Bad_request, "\"deadline_ms\" must be a positive integer"))
    in
    match (analyses, deadline_ms) with
    | Error e, _ | _, Error e -> Error e
    | Ok analyses, Ok deadline_ms ->
      Ok
        (Check
           {
             name = Option.value ~default:"request" (Jsonx.mem_string "name" json);
             program;
             lattice = Option.value ~default:"two" (Jsonx.mem_string "lattice" json);
             binding = Jsonx.mem_string "binding" json;
             analyses;
             self_check =
               Option.value ~default:false (Jsonx.mem_bool "self_check" json);
             ni_pairs = Option.value ~default:8 (Jsonx.mem_int "ni_pairs" json);
             ni_max_states =
               Option.value ~default:20_000 (Jsonx.mem_int "ni_max_states" json);
             deadline_ms;
           }))

let parse_deadline json =
  match Jsonx.member "deadline_ms" json with
  | None -> Ok None
  | Some v -> (
    match Jsonx.int_opt v with
    | Some ms when ms > 0 -> Ok (Some ms)
    | _ -> Error (Bad_request, "\"deadline_ms\" must be a positive integer"))

let parse_cert json =
  match Jsonx.mem_string "program" json with
  | None -> Error (Bad_request, "cert requires a string \"program\" field")
  | Some program -> (
    let action =
      match Jsonx.mem_string "action" json with
      | None | Some "emit" -> (
        match Jsonx.member "cert" json with
        | None -> Ok Cert_emit
        | Some _ ->
          Error (Bad_request, "\"cert\" is only meaningful with action \"check\"")
        )
      | Some "check" -> (
        match Jsonx.mem_string "cert" json with
        | Some text -> Ok (Cert_check text)
        | None ->
          Error (Bad_request, "action \"check\" requires a string \"cert\" field"))
      | Some other ->
        Error
          ( Bad_request,
            Printf.sprintf "unknown cert action %S (use emit or check)" other )
    in
    match (action, parse_deadline json) with
    | Error e, _ | _, Error e -> Error e
    | Ok action, Ok cert_deadline_ms ->
      Ok
        (Cert
           {
             cert_name =
               Option.value ~default:"request" (Jsonx.mem_string "name" json);
             cert_program = program;
             cert_lattice =
               Option.value ~default:"two" (Jsonx.mem_string "lattice" json);
             cert_binding = Jsonx.mem_string "binding" json;
             action;
             cert_deadline_ms;
           }))

let parse_lint json =
  match Jsonx.mem_string "program" json with
  | None -> Error (Bad_request, "lint requires a string \"program\" field")
  | Some program -> (
    match parse_deadline json with
    | Error e -> Error e
    | Ok lint_deadline_ms ->
      Ok
        (Lint
           {
             lint_name =
               Option.value ~default:"request" (Jsonx.mem_string "name" json);
             lint_program = program;
             lint_deadline_ms;
           }))

let parse_modsys json =
  match Jsonx.mem_string "program" json with
  | None -> Error (Bad_request, "modsys requires a string \"program\" field")
  | Some program -> (
    let action =
      match Jsonx.mem_string "action" json with
      | None | Some "link" -> (
        match Jsonx.member "replacement" json with
        | None -> Ok Mod_link
        | Some _ ->
          Error
            (Bad_request, "\"replacement\" is only meaningful with action \"refine\"")
        )
      | Some "summary" -> Ok Mod_summary
      | Some "refine" -> (
        match Jsonx.mem_string "replacement" json with
        | Some text -> Ok (Mod_refine text)
        | None ->
          Error
            ( Bad_request,
              "action \"refine\" requires a string \"replacement\" field" ))
      | Some other ->
        Error
          ( Bad_request,
            Printf.sprintf "unknown modsys action %S (use summary, link, or refine)"
              other )
    in
    match (action, parse_deadline json) with
    | Error e, _ | _, Error e -> Error e
    | Ok mod_action, Ok mod_deadline_ms ->
      Ok
        (Modsys
           {
             mod_name =
               Option.value ~default:"request" (Jsonx.mem_string "name" json);
             mod_program = program;
             mod_lattice =
               Option.value ~default:"two" (Jsonx.mem_string "lattice" json);
             mod_action;
             mod_deadline_ms;
           }))

let parse_request line =
  match Jsonx.parse line with
  | Error msg ->
    {
      v = version;
      id = J.Null;
      pipelined = false;
      op = Error (Parse_error, "invalid JSON: " ^ msg);
    }
  | Ok (J.Obj _ as json) -> (
    let id = Option.value ~default:J.Null (Jsonx.member "id" json) in
    match Jsonx.member "v" json with
    | None ->
      {
        v = version;
        id;
        pipelined = false;
        op = Error (Bad_version, "missing \"v\" (protocol version) field");
      }
    | Some v -> (
      match Jsonx.int_opt v with
      | Some n when n >= min_version && n <= version -> (
        let mk op = { v = n; id; pipelined = n >= 4; op } in
        match Jsonx.mem_string "op" json with
        | None -> mk (Error (Bad_request, "missing string \"op\" field"))
        | Some "ping" -> mk (Ok Ping)
        | Some "stats" -> mk (Ok Stats)
        | Some "check" -> mk (parse_check json)
        | Some "cert" when n >= 2 -> mk (parse_cert json)
        | Some "cert" ->
          mk
            (Error
               ( Bad_request,
                 "op \"cert\" requires protocol version 2 (request declared 1)"
               ))
        | Some "lint" when n >= 3 -> mk (parse_lint json)
        | Some "lint" ->
          mk
            (Error
               ( Bad_request,
                 Printf.sprintf
                   "op \"lint\" requires protocol version 3 (request declared \
                    %d)"
                   n ))
        | Some "modsys" when n >= 5 -> mk (parse_modsys json)
        | Some "modsys" ->
          mk
            (Error
               ( Bad_request,
                 Printf.sprintf
                   "op \"modsys\" requires protocol version 5 (request \
                    declared %d)"
                   n ))
        | Some other ->
          mk
            (Error
               ( Bad_request,
                 Printf.sprintf
                   "unknown op %S (use check, cert, lint, modsys, stats, or \
                    ping)"
                   other )))
      | _ ->
        {
          v = version;
          id;
          pipelined = false;
          op =
            Error
              ( Bad_version,
                Printf.sprintf
                  "unsupported protocol version (this server speaks %d through %d)"
                  min_version version );
        }))
  | Ok _ ->
    {
      v = version;
      id = J.Null;
      pipelined = false;
      op = Error (Parse_error, "request must be a JSON object");
    }

(* Cheap routing pre-scan for event loops: does this line declare
   protocol version 4? Only such lines may be dispatched out of order;
   everything else (older versions, garbage, missing [v]) must flow
   through the serial, order-preserving path. *)
let pipelined_line line =
  match Jsonx.parse line with
  | Ok (J.Obj _ as json) -> (
    match Option.bind (Jsonx.member "v" json) Jsonx.int_opt with
    | Some n -> n >= 4 && n <= version
    | None -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Responses *)

let response_line ?(v = version) ~id fields =
  J.json_to_string (J.Obj ([ ("v", J.Int v); ("id", id) ] @ fields))

let ok_response ?v ~id ~op fields =
  response_line ?v ~id (("ok", J.Bool true) :: ("op", J.String op) :: fields)

let error_response ?v ~id code message =
  response_line ?v ~id
    [
      ("ok", J.Bool false);
      ( "error",
        J.Obj
          [ ("code", J.String (code_string code)); ("message", J.String message) ]
      );
    ]

(* ------------------------------------------------------------------ *)
(* Client-side request builders *)

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let check_line ?(id = J.Null) ?(name = "request") ?(lattice = "two") ?binding
    ?(analyses = [ "cfm" ]) ?(self_check = false) ?ni_pairs ?ni_max_states
    ?deadline_ms program =
  J.json_to_string
    (J.Obj
       ([
          ("v", J.Int version);
          ("id", id);
          ("op", J.String "check");
          ("name", J.String name);
          ("program", J.String program);
          ("lattice", J.String lattice);
        ]
       @ opt_field "binding" (fun b -> J.String b) binding
       @ [ ("analyses", J.List (List.map (fun a -> J.String a) analyses)) ]
       @ (if self_check then [ ("self_check", J.Bool true) ] else [])
       @ opt_field "ni_pairs" (fun n -> J.Int n) ni_pairs
       @ opt_field "ni_max_states" (fun n -> J.Int n) ni_max_states
       @ opt_field "deadline_ms" (fun n -> J.Int n) deadline_ms))

let cert_emit_line ?(id = J.Null) ?(name = "request") ?(lattice = "two")
    ?binding ?deadline_ms program =
  J.json_to_string
    (J.Obj
       ([
          ("v", J.Int version);
          ("id", id);
          ("op", J.String "cert");
          ("action", J.String "emit");
          ("name", J.String name);
          ("program", J.String program);
          ("lattice", J.String lattice);
        ]
       @ opt_field "binding" (fun b -> J.String b) binding
       @ opt_field "deadline_ms" (fun n -> J.Int n) deadline_ms))

let cert_check_line ?(id = J.Null) ?(name = "request") ?deadline_ms ~cert
    program =
  J.json_to_string
    (J.Obj
       ([
          ("v", J.Int version);
          ("id", id);
          ("op", J.String "cert");
          ("action", J.String "check");
          ("name", J.String name);
          ("program", J.String program);
          ("cert", J.String cert);
        ]
       @ opt_field "deadline_ms" (fun n -> J.Int n) deadline_ms))

let lint_line ?(id = J.Null) ?(name = "request") ?deadline_ms program =
  J.json_to_string
    (J.Obj
       ([
          ("v", J.Int version);
          ("id", id);
          ("op", J.String "lint");
          ("name", J.String name);
          ("program", J.String program);
        ]
       @ opt_field "deadline_ms" (fun n -> J.Int n) deadline_ms))

let modsys_line ?(id = J.Null) ?(name = "request") ?(lattice = "two")
    ?(action = "link") ?replacement ?deadline_ms program =
  J.json_to_string
    (J.Obj
       ([
          ("v", J.Int version);
          ("id", id);
          ("op", J.String "modsys");
          ("action", J.String action);
          ("name", J.String name);
          ("program", J.String program);
          ("lattice", J.String lattice);
        ]
       @ opt_field "replacement" (fun r -> J.String r) replacement
       @ opt_field "deadline_ms" (fun n -> J.Int n) deadline_ms))

let stats_line ?(id = J.Null) () =
  J.json_to_string
    (J.Obj [ ("v", J.Int version); ("id", id); ("op", J.String "stats") ])

let ping_line ?(id = J.Null) () =
  J.json_to_string
    (J.Obj [ ("v", J.Int version); ("id", id); ("op", J.String "ping") ])

(* ------------------------------------------------------------------ *)
(* Client-side response readers *)

let response_ok json = Option.value ~default:false (Jsonx.mem_bool "ok" json)

let response_error json =
  match Jsonx.member "error" json with
  | None -> None
  | Some err ->
    Some
      ( Option.value ~default:"?" (Jsonx.mem_string "code" err),
        Option.value ~default:"" (Jsonx.mem_string "message" err) )

let response_verdict json = Jsonx.mem_string "verdict" json
