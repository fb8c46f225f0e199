(* The daemon's request path for check and cert/emit, rebuilt from each
   layer's public functions in the order Server.classify_* calls them,
   with one span around each call. It runs in a single domain: no Pool,
   no Server.handle (whose pooled path polls every millisecond). The
   traced run checks that its response lines equal the daemon's with
   timings and cache labels masked, which is what licenses reading its
   spans as the daemon's per-layer costs. *)

module J = Ifc_pipeline.Telemetry
module Job = Ifc_pipeline.Job
module Cache = Ifc_pipeline.Cache
module Tier = Ifc_pipeline.Tier
module Lattice = Ifc_lattice.Lattice
module Parser = Ifc_lang.Parser
module Wellformed = Ifc_lang.Wellformed
module Binding = Ifc_core.Binding
module Protocol = Ifc_server.Protocol

type env = {
  cache : Job.analysis_result list Cache.t;
  tier : Tier.t option;
}

let env ~cache_size tier = { cache = Cache.create ~shards:1 ~capacity:cache_size (); tier }

type served = {
  response : string;
  cached : [ `Memory | `Disk | `Computed | `Error ];
  program : Ifc_lang.Ast.program option;
}

let load_lattice = function
  | "two" -> Ok (Lattice.stringify Ifc_lattice.Chain.two)
  | "three" -> Ok (Lattice.stringify Ifc_lattice.Chain.three)
  | "four" -> Ok (Lattice.stringify Ifc_lattice.Chain.four)
  | "mls" -> Ok (Lattice.stringify Ifc_lattice.Mls.standard)
  | text when String.contains text '\n' -> Ifc_lattice.Spec.parse text
  | other -> Error ("unknown lattice " ^ other)

(* The response bodies of Server.check_fields and cert_emit_fields. *)
let check_fields (r : Job.result) =
  let tail =
    match r.Job.outcome with
    | Error msg -> [ ("error", J.String msg) ]
    | Ok analyses ->
      [
        ( "analyses",
          J.List
            (List.map
               (fun (ar : Job.analysis_result) ->
                 J.Obj
                   [
                     ("analysis", J.String ar.Job.analysis);
                     ("verdict", J.Bool ar.Job.verdict);
                     ("checks", J.Int ar.Job.checks);
                     ("duration_ns", J.Int (Int64.to_int ar.Job.duration_ns));
                   ])
               analyses) );
      ]
  in
  [
    ("verdict", J.String (Job.verdict_string r));
    ("cache", J.String (if r.Job.from_cache then "hit" else "miss"));
    ("digest", J.String r.Job.job_digest);
    ("duration_ns", J.Int (Int64.to_int r.Job.duration_ns));
  ]
  @ tail

let cert_emit_fields (r : Job.result) =
  let cert =
    match r.Job.outcome with
    | Error _ -> []
    | Ok analyses -> (
      match List.find_opt (fun ar -> ar.Job.artifact <> None) analyses with
      | Some { Job.artifact = Some text; _ } -> [ ("cert", J.String text) ]
      | _ -> [])
  in
  (("action", J.String "emit") :: check_fields r) @ cert

let run_span_name (spec : Job.spec) =
  match spec.Job.analyses with
  | [ Job.Cfm ] -> "core.cfm"
  | [ Job.Cert ] -> "cert.emit"
  | _ -> "core.other"

(* Server.classify_job: memory cache, then the store tier, then compute;
   a computed result is added to both. *)
let classify_job env ~req ~v ~id ~op ~fields spec =
  let span name f = Trace.span ~req name f in
  let digest = span "pipeline.digest" (fun () -> Job.digest spec) in
  let respond cached (r : Job.result) =
    let response =
      span "protocol.encode" (fun () -> Protocol.ok_response ~v ~id ~op (fields r))
    in
    { response; cached; program = Some spec.Job.program }
  in
  let hit cached results =
    let timer = J.start () in
    respond cached
      {
        Job.job_id = 0;
        job_name = spec.Job.name;
        job_digest = digest;
        outcome = Ok results;
        duration_ns = J.elapsed_ns timer;
        from_cache = true;
      }
  in
  match span "pipeline.cache_find" (fun () -> Cache.find env.cache digest) with
  | Some results -> hit `Memory results
  | None -> (
    let stored =
      match env.tier with
      | None -> None
      | Some tier -> span "store.find" (fun () -> tier.Tier.find spec ~digest)
    in
    match stored with
    | Some results ->
      span "pipeline.cache_add" (fun () -> Cache.add env.cache digest results);
      hit `Disk results
    | None ->
      let r = span (run_span_name spec) (fun () -> Job.run ~digest spec) in
      (match r.Job.outcome with
      | Ok analyses ->
        span "pipeline.cache_add" (fun () -> Cache.add env.cache digest analyses);
        Option.iter
          (fun tier -> span "store.add" (fun () -> tier.Tier.store ~digest analyses))
          env.tier
      | Error _ -> ());
      respond `Computed r)

let error ~v ~id msg =
  {
    response = Protocol.error_response ~v ~id Protocol.Bad_request msg;
    cached = `Error;
    program = None;
  }

(* Server.build_spec and the cert/emit arm of Server.classify_cert:
   lattice, parse, well-formedness, binding, then the job. *)
let build ~req ~name ~self_check ~lattice ~program ~binding ~analyses =
  let span name f = Trace.span ~req name f in
  let ( let* ) = Result.bind in
  let* lat = span "binding.lattice" (fun () -> load_lattice lattice) in
  let* p =
    span "lang.parse" (fun () ->
        Result.map_error
          (fun e -> Fmt.str "program: %a" Parser.pp_error e)
          (Parser.parse_program program))
  in
  let* () =
    match span "lang.wellformed" (fun () -> Wellformed.errors p) with
    | [] -> Ok ()
    | errs ->
      Error (Fmt.str "program: %a" (Fmt.list ~sep:Fmt.comma Wellformed.pp_issue) errs)
  in
  span "binding.build" (fun () ->
      let* b =
        match binding with
        | Some text -> Binding.of_spec lat text
        | None -> Binding.of_program lat p
      in
      let* analyses = analyses () in
      Ok (Job.make ~id:0 ~name ~lattice:lat ~binding:b ~analyses ~self_check p))

let serve env ~req line =
  let parsed = Trace.span ~req "protocol.decode" (fun () -> Protocol.parse_request line) in
  let v = parsed.Protocol.v and id = parsed.Protocol.id in
  match parsed.Protocol.op with
  | Ok (Protocol.Check c) -> (
    let analyses () =
      List.fold_left
        (fun acc name ->
          Result.bind acc (fun acc ->
              Result.map
                (fun a -> a :: acc)
                (Job.analysis_of_string ~ni_pairs:c.Protocol.ni_pairs
                   ~ni_max_states:c.Protocol.ni_max_states name)))
        (Ok []) c.Protocol.analyses
      |> Result.map List.rev
    in
    match
      build ~req ~name:c.Protocol.name ~self_check:c.Protocol.self_check
        ~lattice:c.Protocol.lattice ~program:c.Protocol.program
        ~binding:c.Protocol.binding ~analyses
    with
    | Error msg -> error ~v ~id msg
    | Ok spec ->
      classify_job env ~req ~v ~id ~op:"check" ~fields:check_fields spec)
  | Ok (Protocol.Cert ({ Protocol.action = Protocol.Cert_emit; _ } as c)) -> (
    match
      build ~req ~name:c.Protocol.cert_name ~self_check:false
        ~lattice:c.Protocol.cert_lattice ~program:c.Protocol.cert_program
        ~binding:c.Protocol.cert_binding ~analyses:(fun () -> Ok [ Job.Cert ])
    with
    | Error msg -> error ~v ~id msg
    | Ok spec ->
      classify_job env ~req ~v ~id ~op:"cert" ~fields:cert_emit_fields spec)
  | Ok _ -> error ~v ~id "the replay serves check and cert/emit only"
  | Error (_, msg) -> error ~v ~id msg
