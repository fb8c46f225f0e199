(* The correctness gate. Every response is held against a reference
   computed in this process from the generated AST (never through the
   daemon), and every returned certificate is re-validated by the
   independent checker against the program that was sent. *)

module J = Ifc_pipeline.Telemetry
module Jsonx = Ifc_server.Jsonx
module Cert = Ifc_cert.Cert
module Checker = Ifc_cert.Checker

(* Node counts of the certificates already re-validated, keyed by
   (program, certificate) digests: the same bytes for the same program
   need parsing and checking once. *)
let validated : (string, int) Hashtbl.t = Hashtbl.create 256

(* The certificate's node count, once the checker has accepted it. *)
let revalidate ~program_text cert_text =
  let key = Digest.string program_text ^ Digest.string cert_text in
  match Hashtbl.find_opt validated key with
  | Some nodes -> Ok nodes
  | None -> (
    match Cert.parse cert_text with
    | Error e -> Error (Fmt.str "certificate does not parse: %a" Cert.pp_parse_error e)
    | Ok cert -> (
      match Ifc_lang.Parser.parse_program program_text with
      | Error _ -> Error "sent program does not parse"
      | Ok program -> (
        match Checker.check cert program with
        | Ok () ->
          let nodes = Cert.node_count cert in
          Hashtbl.replace validated key nodes;
          Ok nodes
        | Error failures ->
          Error
            (Fmt.str "certificate rejected: %a" Checker.pp_failure (List.hd failures)))))

let analyses json =
  Option.value ~default:[] (Option.bind (Jsonx.member "analyses" json) Jsonx.list_opt)

let find_analysis json name =
  List.find_opt (fun a -> Jsonx.mem_string "analysis" a = Some name) (analyses json)

let ( let* ) = Result.bind

let expect_verdict json name verdict checks =
  match find_analysis json name with
  | None -> Error (Printf.sprintf "no %s result" name)
  | Some a ->
    let* () =
      if Jsonx.mem_bool "verdict" a = Some verdict then Ok ()
      else Error (Printf.sprintf "%s verdict differs from the reference (%b)" name verdict)
    in
    (match checks with
    | Some n when Jsonx.mem_int "checks" a <> Some n ->
      Error (Printf.sprintf "%s check count differs from the reference (%d)" name n)
    | _ -> Ok ())

let check_response (req : Workload.request) line =
  let* json = if line = "" then Error "no response" else Jsonx.parse line in
  let* () =
    if Jsonx.mem_bool "ok" json = Some true then Ok ()
    else
      Error
        (match Ifc_server.Protocol.response_error json with
        | Some (code, msg) -> code ^ ": " ^ msg
        | None -> "response not ok")
  in
  let* () =
    if Jsonx.mem_int "id" json = Some req.Workload.id then Ok () else Error "id mismatch"
  in
  match req.Workload.expect with
  | Workload.Check_expect { analyses = expected } ->
    let* () =
      List.fold_left
        (fun acc (name, verdict, checks) ->
          let* () = acc in
          expect_verdict json name verdict checks)
        (Ok ()) expected
    in
    let pass = List.for_all (fun (_, v, _) -> v) expected in
    if Jsonx.mem_string "verdict" json = Some (if pass then "pass" else "fail") then Ok ()
    else Error "overall verdict differs from the reference"
  | Workload.Cert_expect { certified; program_text } -> (
    let* () = expect_verdict json "cert" certified None in
    match (certified, Jsonx.mem_string "cert" json) with
    | true, None -> Error "certified program came back without a certificate"
    | true, Some text ->
      let* nodes = revalidate ~program_text text in
      (* The reported node count must be the certificate's own. *)
      (match find_analysis json "cert" with
      | Some a when Jsonx.mem_int "checks" a = Some nodes -> Ok ()
      | _ -> Error "node count differs from the certificate")
    | false, Some _ -> Error "certificate for a program the reference rejects"
    | false, None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Masked responses *)

(* Timings and cache labels vary run to run and between the daemon and
   the replay; everything else in a response must not. *)
let rec mask = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "duration_ns" -> (k, J.Int 0)
           | "cache" -> (k, J.String "-")
           | _ -> (k, mask v))
         fields)
  | J.List xs -> J.List (List.map mask xs)
  | v -> v

let masked line =
  match Jsonx.parse line with
  | Ok json -> J.json_to_string (mask json)
  | Error _ -> line

(* ------------------------------------------------------------------ *)
(* Self-test *)

(* The gate must catch a flipped verdict and a certificate with one
   corrupted byte. Both faults are planted into responses rendered the
   way the daemon renders them, for a small certifiable program. *)
let self_test () =
  let lat = Ifc_lattice.Lattice.stringify Ifc_lattice.Chain.two in
  let text = "var x : integer class low;\n    y : integer class high;\nbegin y := x + 1; x := 2 end" in
  let program = Result.get_ok (Ifc_lang.Parser.parse_program text) in
  let binding = Result.get_ok (Ifc_core.Binding.of_program lat program) in
  let run analyses =
    Ifc_pipeline.Job.run (Ifc_pipeline.Job.make ~id:0 ~name:"self-test" ~lattice:lat ~binding ~analyses program)
  in
  let req expect =
    {
      Workload.id = 7;
      name = "self-test";
      line = "";
      fresh_req = false;
      statements = 2;
      expect;
    }
  in
  let check_req =
    let r = Ifc_core.Cfm.analyze_program binding program in
    req
      (Workload.Check_expect
         {
           analyses =
             [ ("cfm", r.Ifc_core.Cfm.certified, Some (List.length r.Ifc_core.Cfm.checks)) ];
         })
  in
  let cert_req =
    req (Workload.Cert_expect { certified = true; program_text = text })
  in
  let check_line = Ifc_server.Protocol.ok_response ~id:(J.Int 7) ~op:"check" (Mirror.check_fields (run [ Ifc_pipeline.Job.Cfm ])) in
  let cert_line = Ifc_server.Protocol.ok_response ~id:(J.Int 7) ~op:"cert" (Mirror.cert_emit_fields (run [ Ifc_pipeline.Job.Cert ])) in
  let at sub s =
    match Str_find.index s sub 0 with Some i -> i | None -> invalid_arg ("self-test: no " ^ sub)
  in
  let flipped =
    let sub = "\"verdict\":true" in
    let i = at sub check_line in
    String.sub check_line 0 i ^ "\"verdict\":false"
    ^ String.sub check_line (i + String.length sub) (String.length check_line - i - String.length sub)
  in
  (* One hex digit of the certificate's program digest. *)
  let corrupted =
    let i = at "program: " cert_line + String.length "program: " in
    let b = Bytes.of_string cert_line in
    Bytes.set b i (if cert_line.[i] = '0' then '1' else '0');
    Bytes.to_string b
  in
  let caught name r =
    match r with Ok () -> Error ("self-test: " ^ name ^ " was not caught") | Error _ -> Ok ()
  in
  let* () = Result.map_error (( ^ ) "self-test: clean check: ") (check_response check_req check_line) in
  let* () = Result.map_error (( ^ ) "self-test: clean cert: ") (check_response cert_req cert_line) in
  let* () = caught "a flipped verdict" (check_response check_req flipped) in
  caught "a certificate with one corrupted byte" (check_response cert_req corrupted)
