(* Job specs, content addressing, and per-job analysis execution. *)

module Lattice = Ifc_lattice.Lattice
module Builtin = Ifc_lattice.Builtin
module Ast = Ifc_lang.Ast
module Key = Ifc_lang.Key
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Denning = Ifc_core.Denning
module Invariance = Ifc_logic_gen.Invariance
module Emit = Ifc_logic_gen.Emit
module Proof = Ifc_logic.Proof
module Ni = Ifc_exec.Noninterference

type analysis =
  | Denning
  | Cfm
  | Prove
  | Cert
  | Ni of { pairs : int; max_states : int }
  | Lint
  | Custom of string * (string Binding.t -> Ast.program -> bool * int)
  | Link of string * (string Binding.t -> Ast.program -> bool * int * string option)

let analysis_name = function
  | Denning -> "denning"
  | Cfm -> "cfm"
  | Prove -> "prove"
  | Cert -> "cert"
  | Ni _ -> "ni"
  | Lint -> "lint"
  | Custom (name, _) -> name
  | Link _ -> "link"

let analysis_key = function
  | Ni { pairs; max_states } -> Printf.sprintf "ni:%d:%d" pairs max_states
  | Custom (name, _) -> "custom:" ^ name
  | Link (unit_digest, _) -> "link:" ^ unit_digest
  | a -> analysis_name a

let analysis_of_string ?(ni_pairs = 8) ?(ni_max_states = 20_000) = function
  | "denning" -> Ok Denning
  | "cfm" -> Ok Cfm
  | "prove" -> Ok Prove
  | "cert" -> Ok Cert
  | "ni" -> Ok (Ni { pairs = ni_pairs; max_states = ni_max_states })
  | "lint" -> Ok Lint
  | other ->
    Error
      (Printf.sprintf
         "unknown analysis %S (use denning, cfm, prove, cert, ni, or lint)"
         other)

let default_analyses = [ Cfm ]

type spec = {
  id : int;
  name : string;
  program : Ast.program;
  binding : string Binding.t;
  lattice : string Lattice.t;
  analyses : analysis list;
  self_check : bool;
}

let make ~id ~name ~lattice ~binding ?(analyses = default_analyses)
    ?(self_check = false) program =
  { id; name; program; binding; lattice; analyses; self_check }

(* Every input the verdicts depend on, in one buffer hashed once; each
   field after the program is tagged and length-prefixed, so none runs
   into the next. Every request pays for the key before its cache lookup:
   the fold costs less than a CFM run (EXPERIMENTS.md, FRONT), and a
   built-in scheme's text was rendered once, at start-up. *)
let digest spec =
  let lattice_text = Builtin.to_text spec.lattice in
  let b = Buffer.create (4096 + String.length lattice_text) in
  let field tag s =
    Buffer.add_char b tag;
    Key.str b s
  in
  Key.str b "ifc-job 2";
  Key.program b spec.program;
  List.iter
    (fun (v, c) ->
      field 'b' v;
      Key.str b c)
    (Binding.bindings spec.binding);
  field 'd' (Binding.default spec.binding);
  field 'l' lattice_text;
  List.iter (fun a -> field 'a' (analysis_key a)) spec.analyses;
  Buffer.add_char b (if spec.self_check then 't' else 'f');
  Key.digest b

type analysis_result = {
  analysis : string;
  verdict : bool;
  checks : int;
  duration_ns : int64;
  artifact : string option;
}

type outcome = (analysis_result list, string) result

type result = {
  job_id : int;
  job_name : string;
  job_digest : string;
  outcome : outcome;
  duration_ns : int64;
  from_cache : bool;
}

(* The certificate rides along as the artifact, so digest-keyed cache
   entries carry the certificate itself. *)
let cert_outcome = function
  | Ok (text, parsed) -> (true, Ifc_cert.Cert.node_count parsed, Some text)
  | Error (`Not_certifiable errors) -> (false, List.length errors, None)
  | Error (`Unparsable (proof_size, _)) -> (false, proof_size, None)
  | Error (`Rejected failures) -> (false, List.length failures, None)

(* The concurrency analyzer. The verdict is "no findings"; the full
   findings list and the safety claims ride along as a JSON artifact, so
   digest-keyed cache entries (and the serve protocol) carry the report
   itself. *)
let lint_report_json ?(extra = []) (report : Ifc_analysis.Analyze.report) =
  let open Telemetry in
  let span s = Fmt.str "%a" Ifc_lang.Loc.pp s in
  let finding (f : Ifc_analysis.Finding.t) =
    Obj
      ([
         ("kind", String (Ifc_analysis.Finding.kind_name f.kind));
         ("severity", String (Ifc_analysis.Finding.severity_name f.severity));
         ("span", String (span f.span));
         ("message", String f.message);
       ]
      @
      match f.related with
      | Some r when not (Ifc_lang.Loc.is_dummy r) ->
        [ ("related", String (span r)) ]
      | _ -> [])
  in
  let claims = report.Ifc_analysis.Analyze.claims in
  let stats = report.Ifc_analysis.Analyze.stats in
  json_to_string
    (Obj
       ([
         ("findings", List (List.map finding report.Ifc_analysis.Analyze.findings));
         ( "claims",
           Obj
             [
               ("race_free", Bool claims.Ifc_analysis.Analyze.race_free);
               ("deadlock_free", Bool claims.Ifc_analysis.Analyze.deadlock_free);
               ("must_block", Bool claims.Ifc_analysis.Analyze.must_block);
               ( "chan_race_free",
                 Bool claims.Ifc_analysis.Analyze.chan_race_free );
               ( "chan_deadlock_free",
                 Bool claims.Ifc_analysis.Analyze.chan_deadlock_free );
             ] );
         ( "channels",
           List
             (List.map
                (fun (c : Ifc_chan.Lint.summary) ->
                  let count = function
                    | Ifc_chan.Lint.Fin n -> Int n
                    | Ifc_chan.Lint.Inf -> String "inf"
                  in
                  Obj
                    [
                      ("name", String c.Ifc_chan.Lint.s_chan);
                      ("cap", Int c.Ifc_chan.Lint.s_cap);
                      ("send_min", Int c.Ifc_chan.Lint.s_send_min);
                      ("send_max", count c.Ifc_chan.Lint.s_send_max);
                      ("recv_min", Int c.Ifc_chan.Lint.s_recv_min);
                      ("recv_max", count c.Ifc_chan.Lint.s_recv_max);
                      ("edges", Int c.Ifc_chan.Lint.s_degree);
                    ])
                report.Ifc_analysis.Analyze.channels) );
         ( "stats",
           Obj
             [
               ("statements", Int stats.Ifc_analysis.Analyze.statements);
               ("accesses", Int stats.Ifc_analysis.Analyze.accesses);
               ("pairs", Int stats.Ifc_analysis.Analyze.pairs);
             ] );
         ( "pruned",
           List
             (List.map
                (fun (pr : Ifc_dataflow.Prune.pruned) ->
                  Obj
                    [
                      ( "arm",
                        String (Ifc_dataflow.Prune.arm_name pr.Ifc_dataflow.Prune.p_arm) );
                      ("span", String (span pr.Ifc_dataflow.Prune.p_span));
                      ("stmt", String (span pr.Ifc_dataflow.Prune.p_stmt_span));
                    ])
                report.Ifc_analysis.Analyze.pruned) );
       ]
       @ extra))

let run_lint program =
  let report = Ifc_analysis.Analyze.run program in
  let n = List.length report.Ifc_analysis.Analyze.findings in
  (n = 0, n, Some (lint_report_json report))

let run_analysis spec witness analysis =
  let timer = Telemetry.start () in
  let verdict, checks, artifact =
    match analysis with
    | Denning ->
      let r =
        Denning.analyze_program ~on_concurrency:`Ignore spec.binding spec.program
      in
      (r.Denning.certified, List.length r.Denning.checks, None)
    | Cfm ->
      let r =
        Cfm.analyze_program ~self_check:spec.self_check spec.binding spec.program
      in
      (r.Cfm.certified, List.length r.Cfm.checks, None)
    | Prove -> (
      match Lazy.force witness with
      | Ok proof -> (true, Proof.size proof, None)
      | Error errors -> (false, List.length errors, None))
    | Cert -> cert_outcome (Emit.certificate ~witness spec.binding spec.program)
    | Ni { pairs; max_states } ->
      let r =
        Ni.test ~pairs ~max_states ~observer:spec.lattice.Lattice.bottom
          spec.binding spec.program
      in
      (Ni.secure r, r.Ni.pairs_tested, None)
    | Lint -> run_lint spec.program
    | Custom (_, f) ->
      let verdict, checks = f spec.binding spec.program in
      (verdict, checks, None)
    | Link (_, f) -> f spec.binding spec.program
  in
  {
    analysis = analysis_name analysis;
    verdict;
    checks;
    duration_ns = Telemetry.elapsed_ns timer;
    artifact;
  }

let run ?digest:precomputed spec =
  let job_digest =
    match precomputed with Some d -> d | None -> digest spec
  in
  let timer = Telemetry.start () in
  (* Built at most once: [Prove] and [Cert] (when CFM rejects) share it. *)
  let witness = lazy (Invariance.witness spec.binding spec.program.Ast.body) in
  let outcome =
    try Ok (List.map (run_analysis spec witness) spec.analyses)
    with exn -> Error (Printexc.to_string exn)
  in
  {
    job_id = spec.id;
    job_name = spec.name;
    job_digest;
    outcome;
    duration_ns = Telemetry.elapsed_ns timer;
    from_cache = false;
  }

let verdict r =
  match r.outcome with
  | Error _ -> `Error
  | Ok results ->
    if List.for_all (fun ar -> ar.verdict) results then `Pass else `Fail

let verdict_string r =
  match verdict r with `Pass -> "pass" | `Fail -> "fail" | `Error -> "error"

let result_fields r =
  let open Telemetry in
  let analyses =
    match r.outcome with
    | Error msg -> [ ("error", String msg) ]
    | Ok results ->
      [
        ( "analyses",
          List
            (List.map
               (fun ar ->
                 Obj
                   ([
                      ("analysis", String ar.analysis);
                      ("verdict", Bool ar.verdict);
                      ("checks", Int ar.checks);
                      ("duration_ns", Int (Int64.to_int ar.duration_ns));
                    ]
                   @
                   match ar.artifact with
                   | None -> []
                   | Some a -> [ ("artifact_bytes", Int (String.length a)) ]))
               results) );
      ]
  in
  [
    ("event", String "job");
    ("id", Int r.job_id);
    ("name", String r.job_name);
    ("digest", String r.job_digest);
    ("cache", String (if r.from_cache then "hit" else "miss"));
    ("verdict", String (verdict_string r));
    ("duration_ns", Int (Int64.to_int r.duration_ns));
  ]
  @ analyses
