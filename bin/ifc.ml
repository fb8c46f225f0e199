(* The ifc command-line driver.

   Subcommands cover the whole toolkit: CFM certification ([check]),
   the Denning baseline ([denning]), binding inference ([infer]),
   Theorem-1 flow proofs ([prove]), execution ([run]), exhaustive
   exploration ([explore]), dynamic taint monitoring ([taint]),
   noninterference testing ([ni]), parallel corpus certification
   ([batch]), lattice inspection ([lattice]), random program generation
   ([gen]) and a reference card ([rules]). *)

module Lattice = Ifc_lattice.Lattice
module Spec = Ifc_lattice.Spec
module Builtin = Ifc_lattice.Builtin
module Laws = Ifc_lattice.Laws
module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Parser = Ifc_lang.Parser
module Pretty = Ifc_lang.Pretty
module Wellformed = Ifc_lang.Wellformed
module Gen = Ifc_lang.Gen
module Metrics = Ifc_lang.Metrics
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Denning = Ifc_core.Denning
module Infer = Ifc_core.Infer
module Report = Ifc_core.Report
module Proof = Ifc_logic.Proof
module Check = Ifc_logic.Check
module Invariance = Ifc_logic_gen.Invariance
module Emit = Ifc_logic_gen.Emit
module Scheduler = Ifc_exec.Scheduler
module Explore = Ifc_exec.Explore
module Taint = Ifc_exec.Taint
module Ni = Ifc_exec.Noninterference
module Job = Ifc_pipeline.Job
module Cache = Ifc_pipeline.Cache
module Batch = Ifc_pipeline.Batch
module Tier = Ifc_pipeline.Tier
module Telemetry = Ifc_pipeline.Telemetry
module Store = Ifc_store.Store
module Campaign = Ifc_fuzz.Campaign
module Plant = Ifc_support.Plant
module Analyze = Ifc_analysis.Analyze
module Cert = Ifc_cert.Cert
module Certcheck = Ifc_cert.Checker
module Linked = Ifc_cert.Linked
module Msummary = Ifc_modsys.Summary
module Mlink = Ifc_modsys.Link
module Mrefine = Ifc_modsys.Refine
module Dwitness = Ifc_dataflow.Witness
module Dsummary = Ifc_dataflow.Dsummary
module Conn = Ifc_server.Conn
module Limits = Ifc_server.Limits
module Server = Ifc_server.Server
module Client = Ifc_server.Client
module Protocol = Ifc_server.Protocol
module Jsonx = Ifc_server.Jsonx
module Loadgen = Ifc_server.Loadgen
module Oracle = Ifc_server.Oracle

open Cmdliner

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Loading helpers *)

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg

let load_program path =
  let* src = read_file path in
  let* p =
    Result.map_error (Fmt.str "%s: %a" path Parser.pp_error) (Parser.parse_program src)
  in
  match Wellformed.errors p with
  | [] ->
    List.iter
      (fun issue -> Fmt.epr "%a@." Wellformed.pp_issue issue)
      (Wellformed.check p);
    Ok p
  | errs ->
    Error (Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Wellformed.pp_issue) errs)

(* Built-in schemes are exposed with string elements so every command
   works uniformly over any of them or over a parsed spec file. *)
let load_lattice name =
  match Builtin.find name with
  | Some l -> Ok l
  | None when Sys.file_exists name -> Spec.parse_file name
  | None ->
    Error
      (Printf.sprintf
         "unknown lattice %S (use two, three, four, mls, or a spec file path)" name)

let load_linked path =
  let* src = read_file path in
  let* l =
    Result.map_error
      (Fmt.str "%s: %a" path Parser.pp_error)
      (Parser.parse_linked src)
  in
  match Wellformed.linked_errors l with
  | [] -> Ok l
  | errs -> Error (Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Wellformed.pp_issue) errs)

(* A stand-alone module file: parsed with the linked-unit grammar but
   without the dangling-import check — its requires are satisfied by
   whatever unit it is eventually linked into. *)
let load_module path =
  let* src = read_file path in
  let* l =
    Result.map_error
      (Fmt.str "%s: %a" path Parser.pp_error)
      (Parser.parse_linked src)
  in
  match l.Ast.modules with
  | m :: _ -> Ok m
  | [] -> Error (path ^ ": contains no module clause")

let load_binding lat binding_file program =
  match binding_file with
  | Some path ->
    let* text = read_file path in
    Binding.of_spec lat text
  | None -> Binding.of_program lat program

(* ------------------------------------------------------------------ *)
(* Common options *)

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Program file.")

let lattice_arg =
  Arg.(
    value
    & opt string "two"
    & info [ "l"; "lattice" ] ~docv:"LATTICE"
        ~doc:
          "Classification scheme: $(b,two), $(b,three), $(b,four), $(b,mls), or the \
           path of a lattice spec file.")

let binding_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "b"; "binding" ] ~docv:"FILE"
        ~doc:
          "Static binding file (lines of $(i,name : class)). Defaults to the \
           $(b,class) annotations in the program's declarations; unannotated \
           variables are bound to the lattice bottom.")

let self_check_arg =
  Arg.(
    value & flag
    & info [ "self-check" ]
        ~doc:
          "Use the literal Figure 2 reading of the composition rule (j <= i), which \
           additionally bounds each statement's own global flow by its own mod.")

let strategy_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "rr" ] | [ "round-robin" ] -> Ok `Round_robin
    | [ "leftmost" ] -> Ok `Leftmost
    | [ "random" ] -> Ok (`Random 0)
    | [ "random"; seed ] -> (
      match int_of_string_opt seed with
      | Some n -> Ok (`Random n)
      | None -> Error (`Msg "random seed must be an integer"))
    | _ -> Error (`Msg "strategy is rr, leftmost, or random[:SEED]")
  in
  let print ppf = function
    | `Round_robin -> Fmt.string ppf "rr"
    | `Leftmost -> Fmt.string ppf "leftmost"
    | `Random n -> Fmt.pf ppf "random:%d" n
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Round_robin
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Scheduler: $(b,rr), $(b,leftmost), or $(b,random)[:SEED].")

let inputs_arg =
  let parse s =
    match String.split_on_char '=' s with
    | [ name; v ] -> (
      match int_of_string_opt v with
      | Some n -> Ok (name, n)
      | None -> Error (`Msg "input value must be an integer"))
    | _ -> Error (`Msg "inputs are NAME=VALUE")
  in
  let print ppf (n, v) = Fmt.pf ppf "%s=%d" n v in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "i"; "input" ] ~docv:"NAME=VALUE" ~doc:"Initial value for a variable.")

let fuel_arg =
  Arg.(
    value & opt int 100_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Maximum number of indivisible steps.")

let exit_of_result = function
  | Ok () -> 0
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1

(* Exit code 2 distinguishes "analysis ran, program rejected". *)
let exit_of_verdict = function
  | Ok true -> 0
  | Ok false -> 2
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1

(* ------------------------------------------------------------------ *)
(* check / denning *)

let run_check lattice_name binding_file self_check requirements flow_sensitive
    modular explain path =
  if modular then
    exit_of_verdict
      (let* lat = load_lattice lattice_name in
       let* l = load_linked path in
       let* outcome = Mlink.certify ~lattice:lat l in
       Fmt.pr "modular certification: %s (%d modules%s)@."
         (if outcome.Mlink.ok then "CERTIFIED" else "REJECTED")
         (List.length l.Ast.modules)
         (match l.Ast.main with None -> "" | Some _ -> " + main");
       List.iter (fun i -> Fmt.pr "  %s@." i) outcome.Mlink.issues;
       Ok outcome.Mlink.ok)
  else
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     let result = Cfm.analyze_program ~self_check binding p in
     Fmt.pr "%a@." (Report.pp_result ~program:p lat) result;
     if explain && not result.Cfm.certified then begin
       match Dwitness.explain ~self_check binding p with
       | Some w -> Fmt.pr "@.%a@." Dwitness.pp w
       | None -> ()
     end;
     if requirements then begin
       Fmt.pr "@.certification requires:@.%a@." Report.pp_requirements
         (Infer.constraints ~self_check p.Ast.body)
     end;
     if flow_sensitive then begin
       let fs = Ifc_core.Flow_sensitive.analyze binding p.Ast.body in
       Fmt.pr "@.flow-sensitive verdict: %a@." Report.pp_verdict
         fs.Ifc_core.Flow_sensitive.accepted;
       List.iter
         (fun (v, c) ->
           Fmt.pr "  final class of %s is %s, above its binding %s@." v
             (lat.Lattice.to_string c)
             (lat.Lattice.to_string (Binding.sbind binding v)))
         fs.Ifc_core.Flow_sensitive.violations;
       Ok fs.Ifc_core.Flow_sensitive.accepted
     end
     else Ok result.Cfm.certified)

let check_cmd =
  let requirements =
    Arg.(
      value & flag
      & info [ "requirements" ]
          ~doc:"Also print the symbolic conditions under which certification succeeds.")
  in
  let flow_sensitive =
    Arg.(
      value & flag
      & info [ "flow-sensitive" ]
          ~doc:
            "Also run the flow-sensitive certifier (tracks current classes through \
             assignments; accepts strictly more programs) and use its verdict for \
             the exit code.")
  in
  let modular =
    Arg.(
      value & flag
      & info [ "modular" ]
          ~doc:
            "Treat $(i,PROGRAM) as a linked unit (module clauses plus an \
             optional main program) and certify it compositionally from \
             per-module summaries — equivalent verdict to whole-program \
             CFM on the elaboration, without re-walking module bodies at \
             link time. See also $(b,ifc modsys).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "On rejection, print a flow witness: the source variables \
             whose classes caused the violation, the statements the flow \
             traversed, and the failed check — replayed and validated \
             before printing.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Certify a program with the Concurrent Flow Mechanism (CFM).")
    Term.(
      const run_check $ lattice_arg $ binding_arg $ self_check_arg $ requirements
      $ flow_sensitive $ modular $ explain $ program_arg)

let run_denning lattice_name binding_file reject path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     let on_concurrency = if reject then `Reject else `Ignore in
     let result = Denning.analyze_program ~on_concurrency binding p in
     Fmt.pr "%a@." (Report.pp_denning lat) result;
     Ok result.Denning.certified)

let denning_cmd =
  let reject =
    Arg.(
      value & flag
      & info [ "reject-concurrency" ]
          ~doc:
            "Historically faithful mode: refuse programs containing cobegin, wait or \
             signal instead of ignoring global flows.")
  in
  Cmd.v
    (Cmd.info "denning"
       ~doc:"Certify with the Denning & Denning baseline (no global flows).")
    Term.(const run_denning $ lattice_arg $ binding_arg $ reject $ program_arg)

(* ------------------------------------------------------------------ *)
(* lint *)

let run_lint json explain no_prune modular lattice_name binding_file path =
  exit_of_verdict
    (let* p, presult =
       if modular then
         (* Each module's dataflow facts come from its own body and
            re-apply to the elaboration. *)
         let* l = load_linked path in
         let p = Mlink.elaborate l in
         Ok (p, Some (Dsummary.apply p (Dsummary.of_linked l)))
       else
         let* p = load_program path in
         Ok (p, None)
     in
     let report =
       match presult with
       | Some presult when not no_prune -> Analyze.run ~prune:presult p
       | _ -> Analyze.run ~dataflow:(not no_prune) p
     in
     let* witness =
       if not explain then Ok None
       else
         let* lat = load_lattice lattice_name in
         let* binding = load_binding lat binding_file p in
         Ok (Dwitness.explain binding p)
     in
     if json then begin
       let extra =
         if not explain then []
         else
           [
             ( "witness",
               match witness with
               | None -> Telemetry.Null
               | Some w ->
                 let span s = Fmt.str "%a" Loc.pp s in
                 Telemetry.Obj
                   [
                     ("mode", Telemetry.String (Dwitness.mode_name w.Dwitness.w_mode));
                     ( "source",
                       Telemetry.List
                         (List.map (fun v -> Telemetry.String v) w.Dwitness.w_source)
                     );
                     ( "steps",
                       Telemetry.List
                         (List.map
                            (fun (st : Dwitness.step) ->
                              Telemetry.Obj
                                [
                                  ("span", Telemetry.String (span st.Dwitness.w_span));
                                  ("var", Telemetry.String st.Dwitness.w_var);
                                  ("rule", Telemetry.String st.Dwitness.w_rule);
                                ])
                            w.Dwitness.w_steps) );
                     ("sink_span", Telemetry.String (span w.Dwitness.w_sink_span));
                     ("sink_rule", Telemetry.String w.Dwitness.w_sink_rule);
                     ( "sink_var",
                       match w.Dwitness.w_sink_var with
                       | Some v -> Telemetry.String v
                       | None -> Telemetry.Null );
                   ] );
           ]
       in
       Fmt.pr "%s@." (Job.lint_report_json ~extra report)
     end
     else begin
       Fmt.pr "%a" Analyze.pp_report report;
       let errors, warnings =
         List.fold_left
           (fun (e, w) (f : Ifc_analysis.Finding.t) ->
             match f.Ifc_analysis.Finding.severity with
             | Ifc_analysis.Finding.Error -> (e + 1, w)
             | Ifc_analysis.Finding.Warning -> (e, w + 1))
           (0, 0) report.Analyze.findings
       in
       let claims = report.Analyze.claims in
       let stats = report.Analyze.stats in
       Fmt.pr "%d error%s, %d warning%s over %d statements (%d accesses, %d \
               parallel pairs)@."
         errors
         (if errors = 1 then "" else "s")
         warnings
         (if warnings = 1 then "" else "s")
         stats.Analyze.statements stats.Analyze.accesses stats.Analyze.pairs;
       Fmt.pr "claims: race-free %b, deadlock-free %b, must-block %b, \
               chan-race-free %b, chan-deadlock-free %b@."
         claims.Analyze.race_free claims.Analyze.deadlock_free
         claims.Analyze.must_block claims.Analyze.chan_race_free
         claims.Analyze.chan_deadlock_free;
       List.iter
         (fun c -> Fmt.pr "%a@." Ifc_chan.Lint.pp_summary c)
         report.Analyze.channels;
       List.iter
         (fun (pr : Ifc_dataflow.Prune.pruned) ->
           Fmt.pr "pruned: %s at %a (guard at %a)@."
             (Ifc_dataflow.Prune.arm_name pr.Ifc_dataflow.Prune.p_arm)
             Loc.pp pr.Ifc_dataflow.Prune.p_span Loc.pp
             pr.Ifc_dataflow.Prune.p_stmt_span)
         report.Analyze.pruned;
       if explain then begin
         match witness with
         | Some w -> Fmt.pr "%a@." Dwitness.pp w
         | None -> Fmt.pr "flow explanation: certified; no witness to show@."
       end
     end;
     Ok (report.Analyze.findings = []))

let lint_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the report as one JSON object (findings, claims, stats).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Also certify the program against $(b,--lattice)/$(b,--binding) \
             (annotations by default) and, on rejection, print a flow \
             witness: source variables, the statements the flow traversed, \
             and the failed check. With $(b,--json) the witness is an \
             additional top-level field.")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable infeasible-path pruning and the dataflow lints: \
             analyze the program exactly as written (the pre-dataflow \
             behaviour, kept for differential comparison).")
  in
  let modular =
    Arg.(
      value & flag
      & info [ "modular" ]
          ~doc:
            "Treat $(i,PROGRAM) as a linked unit and lint its elaboration \
             with dataflow facts taken from each module's own body.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a program's concurrency structure: \
          may-happen-in-parallel data races, guaranteed semaphore and \
          channel deadlocks, lost signals, orphan messages, \
          conditional-delay imbalances, constant guards, statically \
          unreachable branches, and dead stores. Exit code 2 when there \
          are findings.")
    Term.(
      const run_lint $ json $ explain $ no_prune $ modular $ lattice_arg
      $ binding_arg $ program_arg)

(* ------------------------------------------------------------------ *)
(* infer *)

let run_infer lattice_name fixes path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* fixed =
       List.fold_left
         (fun acc (name, cls) ->
           let* acc = acc in
           let* c = lat.Lattice.of_string cls in
           Ok ((name, c) :: acc))
         (Ok []) fixes
     in
     match Infer.infer lat ~fixed p with
     | Ok binding ->
       Fmt.pr "least certifying binding:@.%a@." Binding.pp binding;
       Ok true
     | Error conflict ->
       Fmt.pr
         "unsatisfiable: %a forces %s, but %s is fixed at %s@.(from %a at %a)@."
         Infer.pp_constr conflict.Infer.constr
         (lat.Lattice.to_string conflict.Infer.actual)
         conflict.Infer.constr.Infer.rhs
         (lat.Lattice.to_string conflict.Infer.allowed)
         Fmt.string
         (Cfm.rule_name conflict.Infer.constr.Infer.rule)
         Ifc_lang.Loc.pp conflict.Infer.constr.Infer.span;
       Ok false)

let infer_cmd =
  let fixes =
    let parse s =
      match String.index_opt s '=' with
      | Some i ->
        Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> Error (`Msg "fixed bindings are NAME=CLASS")
    in
    let print ppf (n, c) = Fmt.pf ppf "%s=%s" n c in
    Arg.(
      value
      & opt_all (conv (parse, print)) []
      & info [ "f"; "fix" ] ~docv:"NAME=CLASS" ~doc:"Hold a variable at a fixed class.")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Infer the least static binding certifying the program, or report why none exists.")
    Term.(const run_infer $ lattice_arg $ fixes $ program_arg)

(* ------------------------------------------------------------------ *)
(* prove / cert *)

let write_file path text =
  try
    Ok
      (Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc text))
  with Sys_error msg -> Error msg

(* Why [cert emit] or [prove --emit-cert] hands out no bytes. *)
let emit_failure : Emit.check_failure -> string = function
  | `Unparsable (_, e) ->
    Fmt.str "emitted certificate does not re-parse: %a" Cert.pp_parse_error e
  | `Rejected (f :: _) ->
    Fmt.str "emitted certificate fails the independent checker: %a"
      Certcheck.pp_failure f
  | `Rejected [] -> "emitted certificate fails the independent checker"

let write_certificate out text =
  let* () = write_file out text in
  Fmt.pr "certificate written to %s (%d bytes)@." out (String.length text);
  Ok ()

let run_prove lattice_name binding_file print_proof emit_cert path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     match Invariance.witness binding p.Ast.body with
     | Ok proof ->
       Fmt.pr "flow proof found: %d rule applications, completely invariant@."
         (Proof.size proof);
       if print_proof then Fmt.pr "%a@." (Proof.pp lat) proof;
       let* () =
         match emit_cert with
         | None -> Ok ()
         | Some out -> (
           match Emit.of_proof ~binding ~program:p proof with
           | Ok (text, _) -> write_certificate out text
           | Error failure -> Error (emit_failure failure))
       in
       Ok true
     | Error errors ->
       Fmt.pr "no completely invariant flow proof (program not certifiable):@.%a@."
         (Fmt.list ~sep:Fmt.cut Check.pp_error)
         errors;
       Ok false)

let prove_cmd =
  let print_proof =
    Arg.(value & flag & info [ "print-proof" ] ~doc:"Print the full derivation.")
  in
  let emit_cert =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-cert" ] ~docv:"FILE"
          ~doc:"Also write the proof as a checkable certificate to $(docv).")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Build and check the Theorem-1 completely invariant flow proof (succeeds iff \
          CFM certifies).")
    Term.(
      const run_prove $ lattice_arg $ binding_arg $ print_proof $ emit_cert
      $ program_arg)

let run_cert_emit lattice_name binding_file out path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     match
       Emit.certificate ~witness:(lazy (Invariance.witness binding p.Ast.body)) binding p
     with
     | Error (`Not_certifiable errors) ->
       Fmt.pr "no certificate: program not certifiable:@.%a@."
         (Fmt.list ~sep:Fmt.cut Check.pp_error)
         errors;
       Ok false
     | Error (#Emit.check_failure as failure) -> Error (emit_failure failure)
     | Ok (text, _) ->
       let* () =
         match out with
         | None -> Ok (print_string text)
         | Some out -> write_certificate out text
       in
       Ok true)

(* Version-2 (linked) certificates route here: the program file is a
   linked unit and the checker replays summaries instead of proof
   nodes. The --lattice/--binding cross-checks are version-1 concepts
   (a linked certificate's binding is validated against the unit
   itself). *)
let run_cert_check_linked cert_file text component_files path =
  exit_of_verdict
    (let* l = load_linked path in
     match Linked.parse text with
     | Error e -> Error (Fmt.str "%s: %a" cert_file Cert.pp_parse_error e)
     | Ok cert ->
       let* components =
         List.fold_left
           (fun acc f ->
             let* acc = acc in
             let* c = read_file f in
             Ok (c :: acc))
           (Ok []) component_files
         |> Result.map List.rev
       in
       (match Linked.check ~components cert l with
       | Ok () ->
         Fmt.pr "certificate valid: %d summary nodes, %d bound variables%s@."
           (List.length cert.Linked.summaries)
           (List.length cert.Linked.binds)
           (if components = [] then ""
            else Printf.sprintf ", %d component certificates re-checked"
                (List.length components));
         Ok true
       | Error (first :: _ as failures) ->
         Fmt.pr "certificate rejected (%d failures), first: %s: %s: %s@."
           (List.length failures) first.Linked.path first.Linked.rule
           first.Linked.reason;
         Ok false
       | Error [] -> Ok false))

let run_cert_check lattice_name binding_file cert_file component_files path =
  match
    let* text = read_file cert_file in
    Ok (text, Linked.sniff_version text)
  with
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1
  | Ok (text, Some 2) -> run_cert_check_linked cert_file text component_files path
  | Ok (text, _) ->
  exit_of_verdict
    (let* p = load_program path in
     match Cert.parse text with
     | Error e -> Error (Fmt.str "%s: %a" cert_file Cert.pp_parse_error e)
     | Ok cert ->
       (* Optional cross-checks of the embedded scheme and binding
          against what the caller expects. *)
       let same_scheme l = String.equal (Spec.to_text l) (Spec.to_text cert.Cert.lattice) in
       let* expected_lattice =
         match lattice_name with
         | None -> Ok None
         | Some name ->
           let* expected = load_lattice name in
           if same_scheme expected then Ok (Some expected)
           else
             Error
               (Fmt.str "certificate lattice %S differs from expected %S"
                  cert.Cert.lattice.Lattice.name expected.Lattice.name)
       in
       let* mismatches =
         match binding_file with
         | None -> Ok []
         | Some bf ->
           let* btext = read_file bf in
           (* The certificate's parsed scheme accepts only the exact
              spelling of a class, where emission accepted any. Read the
              binding through a scheme with the same text that
              canonicalises names: the --lattice one, or the built-in
              scheme of the same name. *)
           let scheme =
             match expected_lattice with
             | Some l -> l
             | None -> (
               match Builtin.named cert.Cert.lattice.Lattice.name with
               | Some l when same_scheme l -> l
               | _ -> cert.Cert.lattice)
           in
           let canonical cls =
             match scheme.Lattice.of_string cls with
             | Ok c -> scheme.Lattice.to_string c
             | Error _ -> cls
           in
           let* expected = Binding.of_spec scheme btext in
           Ok
             (List.filter
                (fun (v, cls) ->
                  not
                    (String.equal (canonical cls)
                       (scheme.Lattice.to_string (Binding.sbind expected v))))
                cert.Cert.binds)
       in
       (match mismatches with
       | (v, cls) :: _ ->
         Fmt.pr "certificate rejected: binding mismatch: %s is %s in the certificate@."
           v cls;
         Ok false
       | [] -> (
         match Certcheck.check cert p with
         | Ok () ->
           Fmt.pr "certificate valid: %d nodes, %d bound variables@."
             (Cert.node_count cert)
             (List.length cert.Cert.binds);
           Ok true
         | Error (first :: _ as failures) ->
           Fmt.pr "certificate rejected (%d failures), first: %a@."
             (List.length failures) Certcheck.pp_failure first;
           Ok false
         | Error [] -> Ok false)))

let cert_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the certificate to $(docv) instead of standard output.")
  in
  let cert_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CERT" ~doc:"Certificate file.")
  in
  let cert_program_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"PROGRAM" ~doc:"Program file the certificate is for.")
  in
  let cross_lattice_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "l"; "lattice" ] ~docv:"LATTICE"
          ~doc:
            "Cross-check that the certificate's embedded scheme matches \
             $(docv) (a built-in name or spec file).")
  in
  let cross_binding_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "b"; "binding" ] ~docv:"FILE"
          ~doc:
            "Cross-check that the certificate's recorded binding matches \
             $(docv).")
  in
  let component_arg =
    Arg.(
      value
      & opt_all file []
      & info [ "component" ] ~docv:"CERT"
          ~doc:
            "With a version-2 (linked) certificate: a component \
             certificate to re-check against its module's import-closed \
             body (repeatable). Each must match some summary node's \
             recorded certificate digest.")
  in
  let emit =
    Cmd.v
      (Cmd.info "emit"
         ~doc:
           "Build the Theorem-1 flow proof and write it as a certificate \
            (self-checked before emission; exit 2 when not certifiable).")
      Term.(const run_cert_emit $ lattice_arg $ binding_arg $ out_arg $ program_arg)
  in
  let check =
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Independently validate a certificate against a program: digest, \
            every Figure 1 rule instance, entailment side-conditions, \
            interference freedom and complete invariance. Exit 2 with the \
            first bad node's path on rejection; exit 1 on malformed input.")
      Term.(
        const run_cert_check $ cross_lattice_arg $ cross_binding_arg
        $ cert_file_arg $ component_arg $ cert_program_arg)
  in
  Cmd.group
    (Cmd.info "cert" ~doc:"Emit and independently re-check proof certificates.")
    [ emit; check ]

(* ------------------------------------------------------------------ *)
(* run / explore *)

let run_run strategy inputs fuel trace path =
  exit_of_result
    (let* p = load_program path in
     let cfg = Ifc_exec.Step.init p ~inputs () in
     if trace then begin
       let outcome, steps = Scheduler.run_traced ~fuel ~strategy cfg in
       List.iteri
         (fun i (label, _) -> Fmt.pr "%4d %a@." (i + 1) Ifc_exec.Step.pp_label label)
         steps;
       Fmt.pr "%a@." Scheduler.pp_outcome outcome
     end
     else Fmt.pr "%a@." Scheduler.pp_outcome (Scheduler.run ~fuel ~strategy cfg);
     Ok ())

let run_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print every indivisible action.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program under a scheduler.")
    Term.(const run_run $ strategy_arg $ inputs_arg $ fuel_arg $ trace $ program_arg)

(* BFS over the configuration graph, emitting a Graphviz digraph whose
   nodes are states (terminal = doublecircle, deadlock = octagon) and
   whose edges are labelled with the action taken. *)
let state_graph_dot ~max_states cfg0 =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "digraph states {\n  rankdir=LR;\n  node [shape=circle,label=\"\"];\n";
  let seen = Hashtbl.create 64 in
  let id cfg =
    let k = Ifc_exec.Step.key cfg in
    match Hashtbl.find_opt seen k with
    | Some i -> (i, false)
    | None ->
      let i = Hashtbl.length seen in
      Hashtbl.add seen k i;
      (i, true)
  in
  let queue = Queue.create () in
  let i0, _ = id cfg0 in
  Buffer.add_string buf (Printf.sprintf "  n%d [shape=point];\n" i0);
  Queue.add cfg0 queue;
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < max_states do
    let cfg = Queue.pop queue in
    let i, _ = id cfg in
    if Ifc_exec.Step.is_terminated cfg then
      Buffer.add_string buf (Printf.sprintf "  n%d [shape=doublecircle];\n" i)
    else
      match Ifc_exec.Step.enabled cfg with
      | Error msg ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=box,label=\"fault: %s\"];\n" i msg)
      | Ok [] -> Buffer.add_string buf (Printf.sprintf "  n%d [shape=octagon];\n" i)
      | Ok choices ->
        List.iter
          (fun ch ->
            let j, fresh = id ch.Ifc_exec.Step.next in
            Buffer.add_string buf
              (Fmt.str "  n%d -> n%d [label=\"%a\"];\n" i j Ifc_exec.Step.pp_label
                 ch.Ifc_exec.Step.label);
            if fresh then Queue.add ch.Ifc_exec.Step.next queue)
          choices
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run_explore inputs max_states dot path =
  exit_of_result
    (let* p = load_program path in
     if dot then begin
       Fmt.pr "%s" (state_graph_dot ~max_states (Ifc_exec.Step.init p ~inputs ()));
       Ok ()
     end
     else begin
       let summary = Explore.explore_program ~max_states ~inputs p in
       Fmt.pr "%a@." Explore.pp summary;
       List.iteri
         (fun i cfg ->
           Fmt.pr "terminal %d: %a@." (i + 1) Ifc_exec.Eval.pp_store
             cfg.Ifc_exec.Step.store)
         summary.Explore.terminals;
       Ok ()
     end)

let explore_cmd =
  let max_states =
    Arg.(
      value & opt int 20_000
      & info [ "max-states" ] ~docv:"N" ~doc:"State-space exploration bound.")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the reachable state graph as a Graphviz digraph instead of a \
                summary.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively explore all interleavings (bounded); report terminals, \
             deadlocks and possible divergence.")
    Term.(const run_explore $ inputs_arg $ max_states $ dot $ program_arg)

(* ------------------------------------------------------------------ *)
(* taint / ni *)

let run_taint lattice_name binding_file strategy inputs fuel path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     let report = Taint.run ~fuel ~inputs ~strategy binding p in
     Fmt.pr "%a@." (Taint.pp_report lat) report;
     Ok (report.Taint.violations = []))

let taint_cmd =
  Cmd.v
    (Cmd.info "taint"
       ~doc:
         "Run under the dynamic information-state monitor and report binding \
          violations of the executed schedule.")
    Term.(
      const run_taint $ lattice_arg $ binding_arg $ strategy_arg $ inputs_arg $ fuel_arg
      $ program_arg)

let run_ni lattice_name binding_file observer pairs sensitive max_states path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* p = load_program path in
     let* binding = load_binding lat binding_file p in
     let* observer =
       match observer with
       | None -> Ok lat.Lattice.bottom
       | Some s -> lat.Lattice.of_string s
     in
     let termination = if sensitive then `Sensitive else `Insensitive in
     let r = Ni.test ~pairs ~max_states ~termination ~observer binding p in
     Fmt.pr "pairs tested: %d, skipped: %d, violations: %d@." r.Ni.pairs_tested
       r.Ni.pairs_skipped
       (List.length r.Ni.violations);
     List.iter (fun v -> Fmt.pr "%a@." Ni.pp_violation v) r.Ni.violations;
     Ok (Ni.secure r))

let ni_cmd =
  let observer =
    Arg.(
      value
      & opt (some string) None
      & info [ "observer" ] ~docv:"CLASS"
          ~doc:"Observation level (default: the lattice bottom).")
  in
  let pairs =
    Arg.(value & opt int 16 & info [ "pairs" ] ~docv:"N" ~doc:"Input pairs to test.")
  in
  let sensitive =
    Arg.(
      value & flag
      & info [ "termination-sensitive" ]
          ~doc:"Treat deadlock/divergence as observable (stronger than the paper's model).")
  in
  let max_states =
    Arg.(
      value & opt int 20_000
      & info [ "max-states" ] ~docv:"N" ~doc:"Per-run exploration bound.")
  in
  Cmd.v
    (Cmd.info "ni"
       ~doc:"Empirical noninterference test over all interleavings of random low-equal \
             input pairs.")
    Term.(
      const run_ni $ lattice_arg $ binding_arg $ observer $ pairs $ sensitive
      $ max_states $ program_arg)

(* ------------------------------------------------------------------ *)
(* batch *)

let parse_analyses ~ni_pairs ~ni_max_states csv =
  let names =
    String.split_on_char ',' csv |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match names with
  | [] -> Error "empty --analyses list"
  | names ->
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        let* a = Job.analysis_of_string ~ni_pairs ~ni_max_states name in
        Ok (a :: acc))
      (Ok []) names
    |> Result.map List.rev

(* Random bindings for a generated corpus, matching the bench harness:
   every variable gets a uniformly drawn class, deterministically from
   the corpus seed. *)
let random_binding rng lat stmt =
  let arr = Array.of_list lat.Lattice.elements in
  Binding.make lat
    (List.map
       (fun v -> (v, arr.(Ifc_support.Prng.int rng (Array.length arr))))
       (Ifc_support.Sset.elements (Ifc_lang.Vars.all_vars stmt)))

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* File name for one job's certificate: the job name reduced to safe
   characters, made unique by a digest prefix. *)
let cert_file_name (r : Job.result) =
  let safe =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
        | _ -> '_')
      (Filename.basename r.Job.job_name)
  in
  Printf.sprintf "%s-%s.cert" safe (String.sub r.Job.job_digest 0 12)

let write_batch_certs dir results =
  mkdirs dir;
  let written =
    List.fold_left
      (fun acc (r : Job.result) ->
        match r.Job.outcome with
        | Error _ -> acc
        | Ok analyses -> (
          match
            List.find_opt
              (fun (ar : Job.analysis_result) -> ar.Job.artifact <> None)
              analyses
          with
          | Some { Job.artifact = Some text; _ } ->
            let path = Filename.concat dir (cert_file_name r) in
            if Sys.file_exists path then acc
            else begin
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc text);
              acc + 1
            end
          | _ -> acc))
      0 results
  in
  Fmt.pr "certificates written: %d (to %s)@." written dir

let run_batch lattice_name binding_file self_check jobs use_cache cache_size
    store_dir log_file analyses_csv ni_pairs ni_max_states gen_n gen_size
    gen_seed gen_sequential repeat verbose emit_certs files =
  let result =
    let* () =
      if jobs < 1 then Error "--jobs must be at least 1" else Ok ()
    in
    let* lat = load_lattice lattice_name in
    let* analyses = parse_analyses ~ni_pairs ~ni_max_states analyses_csv in
    let* file_specs =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* p = load_program path in
          let* binding = load_binding lat binding_file p in
          Ok ((path, p, binding) :: acc))
        (Ok []) files
      |> Result.map List.rev
    in
    let gen_specs =
      if gen_n <= 0 then []
      else begin
        let rng = Ifc_support.Prng.create gen_seed in
        let cfg = if gen_sequential then Gen.sequential else Gen.default in
        List.init gen_n (fun i ->
            let p = Gen.program rng cfg ~size:gen_size in
            let binding = random_binding rng lat p.Ast.body in
            (Printf.sprintf "gen:%d:%d" gen_seed i, p, binding))
      end
    in
    let base = file_specs @ gen_specs in
    if base = [] then Error "no programs to certify (give files and/or --gen N)"
    else begin
      let corpus = List.concat (List.init (max 1 repeat) (fun _ -> base)) in
      let specs =
        List.mapi
          (fun i (name, p, binding) ->
            Job.make ~id:i ~name ~lattice:lat ~binding ~analyses ~self_check p)
          corpus
      in
      (* --store implies the memory cache: the tier layers under it, and
         warm-start preloading needs somewhere to put the hot set. *)
      let cache =
        if use_cache || store_dir <> None then
          Some (Cache.create ~capacity:cache_size ())
        else None
      in
      let* store =
        match store_dir with
        | None -> Ok None
        | Some dir ->
          let* s = Store.open_ dir in
          let tier = Store.tier s in
          (match cache with
          | Some cache ->
            Fmt.pr "store: preloaded %d entries from %s@."
              (tier.Tier.preload cache) dir
          | None -> ());
          Ok (Some tier)
      in
      (* with_sink closes (and flushes) the log on every exit path, so
         a raising batch still leaves a whole-line JSONL file. *)
      let run_with sink = Batch.run ~jobs ?cache ?store ?sink specs in
      let* summary =
        match log_file with
        | None -> Ok (run_with None)
        | Some path -> (
          try Telemetry.with_sink path (fun sink -> Ok (run_with (Some sink)))
          with Sys_error msg -> Error msg)
      in
      if verbose then
        List.iter
          (fun r ->
            Fmt.pr "[%d] %s %s%s@." r.Job.job_id r.Job.job_name
              (Job.verdict_string r)
              (if r.Job.from_cache then " (cached)" else ""))
          summary.Batch.results;
      List.iter
        (fun r ->
          match r.Job.outcome with
          | Error msg -> Fmt.epr "ifc: job %d (%s) errored: %s@." r.Job.job_id
                           r.Job.job_name msg
          | Ok _ -> ())
        summary.Batch.results;
      Fmt.pr "%a" Batch.pp_summary summary;
      (match emit_certs with
      | Some dir -> write_batch_certs dir summary.Batch.results
      | None -> ());
      Ok summary
    end
  in
  match result with
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1
  | Ok s -> if s.Batch.errored > 0 then 2 else 0

let batch_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"PROGRAM" ~doc:"Program files.")
  in
  let jobs =
    Arg.(
      value
      & opt int (max 1 (Domain.recommended_domain_count ()))
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (defaults to the recommended domain count).")
  in
  let cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Enable the content-addressed result cache: jobs whose program, \
             binding, lattice and analyses digest-match an earlier job reuse \
             its results.")
  in
  let cache_size =
    Arg.(
      value & opt int 4096
      & info [ "cache-size" ] ~docv:"N" ~doc:"Cache capacity (LRU eviction).")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Layer a persistent content-addressed store under the memory \
             cache (implies $(b,--cache)): previously certified digests are \
             answered from disk, computed results are persisted, and the \
             hottest stored generation is preloaded at startup. Manage \
             $(docv) with $(b,ifc store stats|verify|gc).")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE.jsonl"
          ~doc:
            "Append one JSON object per job (and a final summary event) to \
             $(docv) for audit/replay.")
  in
  let analyses =
    Arg.(
      value & opt string "cfm"
      & info [ "analyses" ] ~docv:"LIST"
          ~doc:
            "Comma-separated analyses to run per program: $(b,denning), \
             $(b,cfm), $(b,prove), $(b,cert), $(b,ni).")
  in
  let emit_certs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-certs" ] ~docv:"DIR"
          ~doc:
            "With the $(b,cert) analysis: write every emitted certificate to \
             $(docv) as $(i,name)-$(i,digest).cert (cache hits included — \
             the certificate rides in the cached result).")
  in
  let ni_pairs =
    Arg.(
      value & opt int 8
      & info [ "ni-pairs" ] ~docv:"N" ~doc:"Input pairs for the ni analysis.")
  in
  let ni_max_states =
    Arg.(
      value & opt int 20_000
      & info [ "ni-max-states" ] ~docv:"N"
          ~doc:"Per-run exploration bound for the ni analysis.")
  in
  let gen_n =
    Arg.(
      value & opt int 0
      & info [ "gen" ] ~docv:"N"
          ~doc:
            "Also certify $(docv) generated programs with seeded random \
             bindings (reproducible per --seed).")
  in
  let gen_size =
    Arg.(
      value & opt int 20
      & info [ "size" ] ~docv:"N" ~doc:"Target statement count for --gen.")
  in
  let gen_seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed for --gen.")
  in
  let gen_sequential =
    Arg.(
      value & flag
      & info [ "sequential" ] ~doc:"Generate without concurrency constructs.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"K"
          ~doc:
            "Process the whole corpus $(docv) times (with --cache, later \
             rounds hit).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print one line per job, in submission order.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Certify a corpus of programs in parallel over a domain pool, with an \
          optional result cache and JSONL telemetry. Exit code 2 if any job \
          errored (rejections are reported in the summary, not the exit code).")
    Term.(
      const run_batch $ lattice_arg $ binding_arg $ self_check_arg $ jobs $ cache
      $ cache_size $ store_dir $ log_file $ analyses $ ni_pairs $ ni_max_states
      $ gen_n $ gen_size $ gen_seed $ gen_sequential $ repeat $ verbose
      $ emit_certs $ files)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let run_fuzz cases refine_cases seed jobs size_min size_max ni_pairs max_states
    time_budget shrink_budget corpus_dir fuzz_store_dir log_file quiet =
  let result =
    let* () = if jobs < 1 then Error "--jobs must be at least 1" else Ok () in
    let* () =
      if cases < 0 then Error "--cases must be non-negative" else Ok ()
    in
    let* () =
      if refine_cases < 0 then Error "--refine-cases must be non-negative"
      else Ok ()
    in
    let* () =
      if size_min < 1 || size_max < size_min then
        Error "--size-min/--size-max must satisfy 1 <= min <= max"
      else Ok ()
    in
    (* Hidden test hooks: IFC_PLANT appends planted cases whose verdicts
       are forced wrong, so the inversion paths (detect, shrink, persist,
       exit 2) stay exercised. *)
    let* plants = Plant.of_env () in
    let config =
      {
        Campaign.cases;
        refine_cases;
        seed;
        jobs;
        size_min;
        size_max;
        ni_pairs;
        max_states;
        time_budget;
        shrink_budget;
        corpus_dir;
        store_dir = fuzz_store_dir;
        plants;
      }
    in
    let run_with sink = Campaign.run ?sink config in
    match log_file with
    | None -> Ok (run_with None)
    | Some path -> (
      try Telemetry.with_sink path (fun sink -> Ok (run_with (Some sink)))
      with Sys_error msg -> Error msg)
  in
  match result with
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1
  | Ok s ->
    (* stdout is byte-deterministic for a fixed seed at any worker count;
       timing goes to stderr only. *)
    Fmt.pr "%a" Campaign.pp_summary s;
    Fmt.pr "%s@." (Campaign.summary_json s);
    if not quiet then begin
      let ms = Telemetry.ns_to_ms s.Campaign.elapsed_ns in
      Fmt.epr "fuzz: %d cases in %.1f ms (%.1f cases/s)@." s.Campaign.completed
        ms
        (if ms > 0. then float_of_int s.Campaign.completed /. (ms /. 1e3)
         else 0.)
    end;
    Campaign.exit_code s

let fuzz_cmd =
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Random programs to draw and audit.")
  in
  let refine_cases =
    Arg.(
      value & opt int 25
      & info [ "refine-cases" ] ~docv:"N"
          ~doc:
            "Module-refinement cases appended to the campaign: each draws a \
             linked two-module unit plus a mutated replacement, takes the \
             compositional claim (link certifies, refinement accepted) at \
             face value, and sets the executor on claimed-safe swaps. A \
             witnessed leak classifies as the $(i,refine-unsound) inversion.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed.")
  in
  let jobs =
    Arg.(
      value
      & opt int (max 1 (Domain.recommended_domain_count ()))
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (defaults to the recommended domain count).")
  in
  let size_min =
    Arg.(
      value & opt int 4
      & info [ "size-min" ] ~docv:"N" ~doc:"Minimum requested program size.")
  in
  let size_max =
    Arg.(
      value & opt int 12
      & info [ "size-max" ] ~docv:"N" ~doc:"Maximum requested program size.")
  in
  let ni_pairs =
    Arg.(
      value & opt int 4
      & info [ "ni-pairs" ] ~docv:"N"
          ~doc:"Noninterference-oracle input pairs per case.")
  in
  let max_states =
    Arg.(
      value & opt int 4_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Oracle state-space budget per exploration; pairs that exceed it \
             count as skipped, never as evidence.")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECS"
          ~doc:
            "Soak mode: stop starting new cases after $(docv) seconds (late \
             cases are reported as timed out; which ones depends on \
             scheduling, so budgeted runs are not byte-reproducible).")
  in
  let shrink_budget =
    Arg.(
      value & opt int 300
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Analyzer re-evaluations allowed while shrinking one \
                counterexample.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist shrunk soundness counterexamples to $(docv) as \
             $(i,name.ifc) + $(i,name.expect) pairs (the regression corpus \
             format under test/corpus/fuzz).")
  in
  let fuzz_store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Replay every case against the persistent artifact store at \
             $(docv): stored CFM verdicts that diverge from freshly computed \
             ones classify as the $(i,store-stale) inversion, and misses \
             write honest verdicts back for the next campaign to replay.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE.jsonl"
          ~doc:"Append one JSON event per case, shrink and summary to $(docv).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No timing chatter on stderr.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a differential fuzzing campaign: random programs through CFM, \
          Denning, the flow-sensitive certifier, the Theorem-1 prover and the \
          noninterference oracle in parallel, classifying disagreements \
          against the paper's hierarchy. Soundness inversions are shrunk and \
          persisted; expected strictness gaps are counted. Exit code 2 if any \
          inversion was found.")
    Term.(
      const run_fuzz $ cases $ refine_cases $ seed $ jobs $ size_min $ size_max
      $ ni_pairs $ max_states $ time_budget $ shrink_budget $ corpus_dir
      $ fuzz_store_dir $ log_file $ quiet)

(* ------------------------------------------------------------------ *)
(* serve / client *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Conn.tcp_of_string s) in
  let print ppf ep = Conn.pp_endpoint ppf ep in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"TCP endpoint (port 0 picks an ephemeral port).")

let run_serve socket tcp jobs shards cache_size store_dir max_request_bytes
    max_connections max_pending max_inflight deadline_ms log_file port_file
    quiet =
  let result =
    let endpoints =
      (match socket with Some p -> [ Conn.Unix_socket p ] | None -> [])
      @ match tcp with Some ep -> [ ep ] | None -> []
    in
    let* () =
      if endpoints = [] then Error "serve needs --socket PATH and/or --tcp HOST:PORT"
      else Ok ()
    in
    let* log =
      match log_file with
      | None -> Ok None
      | Some path -> (
        try Ok (Some (Telemetry.open_sink path)) with Sys_error msg -> Error msg)
    in
    let* store =
      match store_dir with
      | None -> Ok None
      | Some dir ->
        let* s = Store.open_ dir in
        Ok (Some (Store.tier s))
    in
    let config =
      {
        Server.endpoints;
        workers = jobs;
        shards;
        cache_capacity = cache_size;
        limits =
          {
            Limits.max_request_bytes;
            max_connections;
            max_pending;
            max_inflight;
            default_deadline_ms = deadline_ms;
          };
        log;
        store;
      }
    in
    let* server = Server.create config in
    let stop _ = Server.request_stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    (match (port_file, Server.port server) with
    | Some path, Some port ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "%d\n" port)
    | _ -> ());
    if not quiet then begin
      List.iter
        (fun ep ->
          let ep =
            match (ep, Server.port server) with
            | Conn.Tcp (host, 0), Some port -> Conn.Tcp (host, port)
            | ep, _ -> ep
          in
          Fmt.epr "ifc: serving on %a@." Conn.pp_endpoint ep)
        endpoints;
      Fmt.epr "ifc: %d worker domain(s), cache capacity %d@." jobs cache_size
    end;
    Server.run server;
    if not quiet then Fmt.epr "ifc: drained, shutting down@.";
    Ok ()
  in
  exit_of_result result

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt int (max 1 (Domain.recommended_domain_count ()))
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (defaults to the recommended domain count).")
  in
  let shards =
    Arg.(
      value
      & opt int (max 1 (Domain.recommended_domain_count ()))
      & info [ "shards" ] ~docv:"N"
          ~doc:"Connection-shard event loops, at least 1 (defaults to the \
                recommended domain count).")
  in
  let cache_size =
    Arg.(
      value & opt int 4096
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Shared result-cache capacity (LRU eviction).")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent content-addressed result store under the memory \
             cache: the hottest stored generation is preloaded at boot, \
             cache misses consult disk before computing, computed results \
             are persisted, and $(b,stats) responses gain a store object.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int Limits.default.Limits.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Longest accepted request line; longer requests get an \
                $(b,oversized) error.")
  in
  let max_connections =
    Arg.(
      value
      & opt int Limits.default.Limits.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent client connections; excess connections get one \
                $(b,overloaded) response. 0 = unlimited.")
  in
  let max_pending =
    Arg.(
      value
      & opt int Limits.default.Limits.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Queued jobs tolerated before requests are answered \
                $(b,overloaded). 0 = unlimited.")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Limits.default.Limits.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Concurrently executing pipelined (protocol v4) requests per \
                connection before further ones are answered \
                $(b,overloaded). 0 = unlimited.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (0 = none); requests may carry \
                their own.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE.jsonl"
          ~doc:"Append one JSON object per request for audit/replay.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound TCP port to $(docv) once listening (useful \
                with --tcp HOST:0).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No startup/shutdown chatter.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the certification daemon: concurrent clients share one worker \
          pool and one result cache over a newline-delimited JSON protocol \
          (see PROTOCOL.md). SIGINT/SIGTERM drain in-flight requests before \
          exiting.")
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ jobs $ shards $ cache_size
      $ store_dir $ max_request_bytes $ max_connections $ max_pending
      $ max_inflight $ deadline_ms $ log_file $ port_file $ quiet)

(* Resolve the client's --lattice argument: builtin names pass through,
   file paths are inlined as spec text (the server never opens files on
   a client's behalf). *)
let client_lattice lattice_name =
  match lattice_name with
  | name when Option.is_some (Builtin.find name) -> Ok name
  | path when Sys.file_exists path -> read_file path
  | other -> Ok other

let run_client socket tcp wait json_out lattice_name binding_file self_check
    analyses_csv deadline_ms op files =
  let result =
    let* endpoint =
      match (socket, tcp) with
      | Some p, None -> Ok (Conn.Unix_socket p)
      | None, Some ep -> Ok ep
      | None, None -> Error "client needs --socket PATH or --tcp HOST:PORT"
      | Some _, Some _ -> Error "give either --socket or --tcp, not both"
    in
    Client.with_client ~retry_for:wait endpoint (fun c ->
        match op with
        | "ping" ->
          let* () = Client.ping c in
          Fmt.pr "pong@.";
          Ok 0
        | "stats" ->
          let* response = Client.stats c in
          if json_out then Fmt.pr "%s@." (Telemetry.json_to_string response)
          else begin
            let stats =
              Option.value ~default:Telemetry.Null (Jsonx.member "stats" response)
            in
            let int_of path json =
              match
                List.fold_left
                  (fun acc key -> Option.bind acc (Jsonx.member key))
                  (Some json) path
              with
              | Some v -> Option.value ~default:0 (Jsonx.int_opt v)
              | None -> 0
            in
            Fmt.pr "uptime: %.1f s@."
              (float_of_int (int_of [ "uptime_ns" ] stats) /. 1e9);
            Fmt.pr "workers: %d, active connections: %d (peak %d)@."
              (int_of [ "workers" ] stats)
              (int_of [ "active_connections" ] stats)
              (int_of [ "peak_connections" ] stats);
            Fmt.pr "requests: %d (%d errors)@."
              (int_of [ "counters"; "requests" ] stats)
              (int_of [ "counters"; "errors" ] stats);
            let hits = int_of [ "cache"; "hits" ] stats
            and misses = int_of [ "cache"; "misses" ] stats in
            Fmt.pr "cache: %d hits, %d misses, %d entries@." hits misses
              (int_of [ "cache"; "size" ] stats);
            Fmt.pr "latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms over %d requests@."
              (float_of_int (int_of [ "latency"; "p50_ns" ] stats) /. 1e6)
              (float_of_int (int_of [ "latency"; "p95_ns" ] stats) /. 1e6)
              (float_of_int (int_of [ "latency"; "p99_ns" ] stats) /. 1e6)
              (int_of [ "latency"; "count" ] stats)
          end;
          Ok 0
        | "check" ->
          let* () = if files = [] then Error "check needs program files" else Ok () in
          let* lattice = client_lattice lattice_name in
          let* binding =
            match binding_file with
            | None -> Ok None
            | Some path -> Result.map Option.some (read_file path)
          in
          let analyses =
            String.split_on_char ',' analyses_csv
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
          in
          List.fold_left
            (fun acc path ->
              let* worst = acc in
              let* program = read_file path in
              let* response =
                Client.check c ~name:(Filename.basename path) ~lattice ?binding
                  ~analyses ~self_check ?deadline_ms program
              in
              if json_out then begin
                Fmt.pr "%s@." (Telemetry.json_to_string response);
                Ok worst
              end
              else if Protocol.response_ok response then begin
                let verdict =
                  Option.value ~default:"?" (Protocol.response_verdict response)
                in
                let cache =
                  Option.value ~default:"?" (Jsonx.mem_string "cache" response)
                in
                Fmt.pr "%s: %s (cache %s)@." path verdict cache;
                (match Jsonx.mem_string "error" response with
                | Some msg -> Fmt.epr "ifc: %s errored: %s@." path msg
                | None -> ());
                Ok (if verdict = "pass" then worst else max worst 2)
              end
              else begin
                match Protocol.response_error response with
                | Some (code, msg) ->
                  Fmt.pr "%s: error %s (%s)@." path code msg;
                  Ok (max worst 2)
                | None -> Error "malformed response (no verdict, no error)"
              end)
            (Ok 0) files
        | "cert" ->
          let* path =
            match files with
            | [ path ] -> Ok path
            | _ -> Error "cert needs exactly one program file"
          in
          let* lattice = client_lattice lattice_name in
          let* binding =
            match binding_file with
            | None -> Ok None
            | Some path -> Result.map Option.some (read_file path)
          in
          let* program = read_file path in
          let* response =
            Client.cert_emit c ~name:(Filename.basename path) ~lattice ?binding
              ?deadline_ms program
          in
          if json_out then begin
            Fmt.pr "%s@." (Telemetry.json_to_string response);
            Ok 0
          end
          else if Protocol.response_ok response then begin
            match Jsonx.mem_string "cert" response with
            | Some text ->
              Fmt.pr "%s" text;
              Ok 0
            | None ->
              Fmt.epr "ifc: %s: no certificate (verdict %s)@." path
                (Option.value ~default:"?" (Protocol.response_verdict response));
              Ok 2
          end
          else begin
            match Protocol.response_error response with
            | Some (code, msg) ->
              Fmt.epr "ifc: %s: error %s (%s)@." path code msg;
              Ok 2
            | None -> Error "malformed response (no cert, no error)"
          end
        | "cert-check" ->
          let* program_path, cert_path =
            match files with
            | [ p; c ] -> Ok (p, c)
            | _ -> Error "cert-check needs a program file and a certificate file"
          in
          let* program = read_file program_path in
          let* cert = read_file cert_path in
          let* response =
            Client.cert_check c ~name:(Filename.basename program_path) ~cert
              ?deadline_ms program
          in
          if json_out then begin
            Fmt.pr "%s@." (Telemetry.json_to_string response);
            Ok 0
          end
          else if Protocol.response_ok response then begin
            match Jsonx.member "valid" response with
            | Some (Telemetry.Bool true) ->
              Fmt.pr "%s: certificate valid (%d nodes)@." cert_path
                (Option.value ~default:0 (Jsonx.mem_int "nodes" response));
              Ok 0
            | _ ->
              let first =
                Option.value ~default:Telemetry.Null
                  (Jsonx.member "first" response)
              in
              Fmt.pr "%s: certificate rejected at %s: [%s] %s@." cert_path
                (Option.value ~default:"?" (Jsonx.mem_string "path" first))
                (Option.value ~default:"?" (Jsonx.mem_string "rule" first))
                (Option.value ~default:"" (Jsonx.mem_string "reason" first));
              Ok 2
          end
          else begin
            match Protocol.response_error response with
            | Some (code, msg) ->
              Fmt.pr "%s: error %s (%s)@." cert_path code msg;
              Ok 2
            | None -> Error "malformed response (no verdict, no error)"
          end
        | "lint" ->
          let* () = if files = [] then Error "lint needs program files" else Ok () in
          List.fold_left
            (fun acc path ->
              let* worst = acc in
              let* program = read_file path in
              let* response =
                Client.lint c ~name:(Filename.basename path) ?deadline_ms
                  program
              in
              if json_out then begin
                Fmt.pr "%s@." (Telemetry.json_to_string response);
                Ok worst
              end
              else if Protocol.response_ok response then begin
                let verdict =
                  Option.value ~default:"?" (Protocol.response_verdict response)
                in
                let findings =
                  match
                    Option.bind
                      (Jsonx.member "report" response)
                      (Jsonx.member "findings")
                  with
                  | Some (Telemetry.List fs) -> fs
                  | _ -> []
                in
                List.iter
                  (fun f ->
                    Fmt.pr "%s: %s: %s[%s]: %s@." path
                      (Option.value ~default:"?" (Jsonx.mem_string "span" f))
                      (Option.value ~default:"?" (Jsonx.mem_string "severity" f))
                      (Option.value ~default:"?" (Jsonx.mem_string "kind" f))
                      (Option.value ~default:"" (Jsonx.mem_string "message" f)))
                  findings;
                Fmt.pr "%s: %s (%d finding%s)@." path verdict
                  (List.length findings)
                  (if List.length findings = 1 then "" else "s");
                Ok (if verdict = "pass" then worst else max worst 2)
              end
              else begin
                match Protocol.response_error response with
                | Some (code, msg) ->
                  Fmt.pr "%s: error %s (%s)@." path code msg;
                  Ok (max worst 2)
                | None -> Error "malformed response (no verdict, no error)"
              end)
            (Ok 0) files
        | other ->
          Error
            (Printf.sprintf
               "unknown client operation %S (use check, cert, cert-check, \
                lint, stats, or ping)" other))
  in
  match result with
  | Ok code -> code
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1

let client_cmd =
  let wait =
    Arg.(
      value & opt float 0.
      & info [ "wait" ] ~docv:"SECS"
          ~doc:"Retry the connection for up to $(docv) seconds (for servers \
                still starting).")
  in
  let json_out =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print raw response lines instead of summaries.")
  in
  let analyses =
    Arg.(
      value & opt string "cfm"
      & info [ "analyses" ] ~docv:"LIST"
          ~doc:"Comma-separated analyses: $(b,denning), $(b,cfm), $(b,prove), \
                $(b,ni).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "$(b,check), $(b,cert) (emit a certificate for one program), \
             $(b,cert-check) (validate PROGRAM CERT), $(b,lint) (static \
             concurrency analysis), $(b,stats), or $(b,ping).")
  in
  let files =
    Arg.(
      value & pos_right 0 file []
      & info [] ~docv:"PROGRAM"
          ~doc:"Program files (for $(b,check), $(b,cert), $(b,cert-check)).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running certification daemon: certify programs over the \
          wire, fetch service stats, or ping. Exit code 2 if any program \
          fails certification.")
    Term.(
      const run_client $ socket_arg $ tcp_arg $ wait $ json_out $ lattice_arg
      $ binding_arg $ self_check_arg $ analyses $ deadline_ms $ op $ files)

(* ------------------------------------------------------------------ *)
(* loadgen *)

let run_loadgen socket tcp wait json_out clients window requests distinct
    ops_csv name oracle seed oracle_requests shards =
  let result =
    if oracle then begin
      let* r = Oracle.run ~seed ~requests:oracle_requests ~shards () in
      if json_out then
        Fmt.pr "%s@."
          (Telemetry.json_to_string (Telemetry.Obj (Oracle.report_fields r)))
      else
        Fmt.pr "oracle: %d requests replayed, %d divergence(s)@." r.Oracle.compared
          (List.length r.Oracle.divergences);
      match r.Oracle.divergences with
      | [] -> Ok 0
      | ds ->
        List.iteri
          (fun i d ->
            if i < 5 then begin
              Fmt.epr "divergence id %d:@." d.Oracle.id;
              Fmt.epr "  request: %s@." d.Oracle.request;
              Fmt.epr "  reference: %s@." d.Oracle.reference;
              Fmt.epr "  sharded:   %s@." d.Oracle.sharded
            end)
          ds;
        Ok 2
    end
    else
      let* () = Limits.check_fd_budget ~what:"--clients" clients in
      let* endpoint =
        match (socket, tcp) with
        | Some p, None -> Ok (Conn.Unix_socket p)
        | None, Some ep -> Ok ep
        | None, None -> Error "loadgen needs --socket PATH or --tcp HOST:PORT"
        | Some _, Some _ -> Error "give either --socket or --tcp, not both"
      in
      let* ops =
        String.split_on_char ',' ops_csv
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.fold_left
             (fun acc name ->
               let* acc = acc in
               match Loadgen.op_of_string name with
               | Some op -> Ok (op :: acc)
               | None ->
                 Error
                   (Fmt.str "unknown op %S (use check, cert, lint, or ping)"
                      name))
             (Ok [])
        |> Result.map List.rev
      in
      let cfg =
        {
          Loadgen.endpoint;
          clients;
          window;
          requests;
          distinct;
          ops;
          name;
          retry_for = wait;
        }
      in
      let r = Loadgen.run cfg in
      if json_out then
        Fmt.pr "%s@."
          (Telemetry.json_to_string (Telemetry.Obj (Loadgen.report_fields r)))
      else begin
        Fmt.pr "load: %d client(s) x %d request(s), window %d@." r.Loadgen.clients
          requests r.Loadgen.window;
        Fmt.pr "ok: %d, failed: %d, protocol errors: %d, connect errors: %d@."
          r.Loadgen.ok r.Loadgen.failed r.Loadgen.protocol_errors
          r.Loadgen.connect_errors;
        Fmt.pr "throughput: %.1f req/s over %.2f s@." r.Loadgen.throughput_rps
          r.Loadgen.duration_s;
        Fmt.pr
          "latency: mean %.2f ms, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max \
           %.2f ms@."
          r.Loadgen.mean_ms r.Loadgen.p50_ms r.Loadgen.p95_ms r.Loadgen.p99_ms
          r.Loadgen.max_ms;
        Fmt.pr "codes:%s@."
          (String.concat ""
             (List.map
                (fun (code, n) -> Fmt.str " %s=%d" code n)
                r.Loadgen.codes))
      end;
      if
        r.Loadgen.protocol_errors > 0
        || r.Loadgen.connect_errors > 0
        || r.Loadgen.ok = 0
      then Ok 2
      else Ok 0
  in
  match result with
  | Ok code -> code
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1

let loadgen_cmd =
  let wait =
    Arg.(
      value & opt float 5.
      & info [ "wait" ] ~docv:"SECS"
          ~doc:"Retry each connection for up to $(docv) seconds.")
  in
  let json_out =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the report as one JSON line.")
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let window =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Pipelined requests kept in flight per connection (protocol \
             version 4); 1 degrades to serial request/response.")
  in
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per connection.")
  in
  let distinct =
    Arg.(
      value & opt int 64
      & info [ "distinct" ] ~docv:"N"
          ~doc:
            "Distinct program variants cycled through (the cache-pressure \
             knob; 1 makes every request after the first a cache hit).")
  in
  let ops =
    Arg.(
      value & opt string "check"
      & info [ "ops" ] ~docv:"LIST"
          ~doc:
            "Comma-separated request mix, cycled: $(b,check), $(b,cert), \
             $(b,lint), $(b,ping).")
  in
  let name_arg =
    Arg.(
      value & opt string "load"
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            "Request name attached to every job (a $(b,stall)-prefixed name \
             trips a server started with the IFC_PLANT=stall:MS plant).")
  in
  let oracle =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Run the differential server oracle instead of a load: answer \
             one seeded stream through sequential in-process calls, replay \
             it pipelined over sockets against a server with $(b,--shards) \
             connection shards (both booted in-process; no --socket/--tcp \
             needed), and demand identical responses. Exit code 2 on \
             divergence.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Oracle stream seed.")
  in
  let oracle_requests =
    Arg.(
      value & opt int 500
      & info [ "oracle-requests" ] ~docv:"N"
          ~doc:"Oracle stream length.")
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Connection shards of the oracle's server.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running certification daemon with concurrent pipelined \
          clients and report throughput and latency percentiles — or, with \
          $(b,--oracle), differentially test the server engine against \
          sequential in-process calls. Exit code 2 on protocol errors, zero \
          successful responses, or oracle divergence.")
    Term.(
      const run_loadgen $ socket_arg $ tcp_arg $ wait $ json_out $ clients
      $ window $ requests $ distinct $ ops $ name_arg $ oracle $ seed
      $ oracle_requests $ shards)

(* ------------------------------------------------------------------ *)
(* lattice / gen / rules *)

let run_lattice lattice_name dot =
  exit_of_result
    (let* lat = load_lattice lattice_name in
     if dot then begin
       Fmt.pr "%s" (Lattice.to_dot lat);
       Ok ()
     end
     else begin
       Fmt.pr "lattice %s: %d classes, height %d@." lat.Lattice.name
         (List.length lat.Lattice.elements)
         (Lattice.height lat);
       Fmt.pr "bottom: %s, top: %s@." lat.Lattice.bottom lat.Lattice.top;
       List.iter (fun (a, b) -> Fmt.pr "  %s < %s@." a b) (Lattice.covers lat);
       match Laws.check lat with
       | Ok () ->
         Fmt.pr "all %d lattice laws hold@." (List.length Laws.laws);
         Ok ()
       | Error { Laws.law; witness } ->
         Error (Printf.sprintf "law %s violated by %s" law witness)
     end)

let lattice_cmd =
  let lattice_pos =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"LATTICE" ~doc:"Built-in name or spec file.")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the Hasse diagram as a Graphviz digraph.")
  in
  Cmd.v
    (Cmd.info "lattice" ~doc:"Inspect and validate a classification scheme.")
    Term.(const run_lattice $ lattice_pos $ dot)

let run_gen size seed sequential =
  let rng = Ifc_support.Prng.create seed in
  let cfg = if sequential then Gen.sequential else Gen.default in
  let p = Gen.program rng cfg ~size in
  Fmt.pr "%s@." (Pretty.program_to_string p);
  Fmt.epr "-- %d statements@." (Metrics.of_program p).Metrics.statements;
  0

let gen_cmd =
  let size =
    Arg.(value & opt int 20 & info [ "size" ] ~docv:"N" ~doc:"Target statement count.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let sequential =
    Arg.(
      value & flag
      & info [ "sequential" ] ~doc:"No concurrency or synchronization constructs.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random well-formed program (for corpora).")
    Term.(const run_gen $ size $ seed $ sequential)

let rules_text =
  {|Figure 1 — the information flow logic (Andrews & Reitman)

  assignment   {P[x <- e (+) local (+) global]}  x := e  {P}
  signal       {P[sem <- sem (+) local (+) global]}  signal(sem)  {P}
  wait         {P[sem <- sem (+) local (+) global,
                  global <- sem (+) local (+) global]}  wait(sem)  {P}
  alternation  {V,L',G} S1 {V',L',G'},  {V,L',G} S2 {V',L',G'},
               V,L,G |- L'[local <- local (+) e]
               =>  {V,L,G} if e then S1 else S2 {V',L,G'}
  iteration    {V,L',G} S {V,L',G},
               V,L,G |- L'[local <- local (+) e],
               V,L,G |- G'[global <- global (+) local (+) e]
               =>  {V,L,G} while e do S {V,L,G'}
  composition  {P0} S1 {P1}, ..., {Pn-1} Sn {Pn}
               =>  {P0} begin S1; ...; Sn end {Pn}
  consequence  {P'} S {Q'},  P |- P',  Q' |- Q  =>  {P} S {Q}
  concurrency  {Vi,L,G} Si {Vi',L,G'} interference-free (1 <= i <= n)
               =>  {V1..Vn,L,G} cobegin S1 || ... || Sn coend {V1'..Vn',L,G'}

Figure 2 — the Concurrent Flow Mechanism

  statement      mod(S)            flow(S)                      cert(S)
  x := e         sbind(x)          nil                          sbind(e) <= sbind(x)
  if e S1 S2     mod(S1)(*)mod(S2) nil if both nil, else        cert(S1) and cert(S2)
                                   flow(S1)(+)flow(S2)(+)e      and sbind(e) <= mod(S)
  while e S1     mod(S1)           flow(S1) (+) sbind(e)        cert(S1) and flow(S) <= mod(S)
  begin S1..Sn   (*)i mod(Si)      (+)i flow(Si)                all cert(Si) and
                                                                flow(Sj) <= mod(Si), j < i
  cobegin ..     (*)i mod(Si)      (+)i flow(Si)                all cert(Si)
  wait(sem)      sbind(sem)        sbind(sem)                   true
  signal(sem)    sbind(sem)        nil                          true

  extensions beyond the paper (see DESIGN.md):
  a[i] := e      sbind(a)          nil                          sbind(i) (+) sbind(e) <= sbind(a)
  x := declassify e to C
                 sbind(x)          nil                          C <= sbind(x)
  send(c, e)     sbind(c)          nil                          sbind(e) <= sbind(c)
  recv(c, x)     sbind(c)(*)sbind(x)  sbind(c)                  sbind(c) <= sbind(x)

  ((+) join, (*) meet; nil is the extended scheme's new bottom, Definition 4.)|}

(* ------------------------------------------------------------------ *)
(* store *)

let store_pos_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory.")

(* Inspection verbs open without bumping the generation, so looking at a
   store never ages its heat ranking. *)
let run_store_stats dir =
  exit_of_result
    (let* s = Store.open_ ~bump:false dir in
     let d = Store.disk_stats s in
     Fmt.pr "generation: %d@." d.Store.generation;
     Fmt.pr "entries: %d (%d bytes)@." d.Store.entries d.Store.entry_bytes;
     Fmt.pr "summaries: %d (%d bytes)@." d.Store.summaries d.Store.summary_bytes;
     Fmt.pr "quarantined: %d@." d.Store.quarantined;
     Ok ())

let run_store_verify dir =
  match Store.open_ ~bump:false dir with
  | Error msg ->
    Fmt.epr "ifc: %s@." msg;
    1
  | Ok s ->
    let r = Store.verify s in
    List.iter
      (fun name -> Fmt.pr "quarantined: %s@." name)
      r.Store.quarantined_files;
    Fmt.pr "checked: %d, ok: %d, quarantined: %d@." r.Store.checked r.Store.ok
      r.Store.quarantined;
    if r.Store.quarantined > 0 then 2 else 0

let run_store_gc dir keep =
  let result =
    let* () = if keep < 0 then Error "--keep must be non-negative" else Ok () in
    let* s = Store.open_ ~bump:false dir in
    let r = Store.gc ~keep s in
    Fmt.pr "live: %d, swept: %d, quarantined: %d, staging swept: %d, bytes freed: %d@."
      r.Store.live r.Store.swept r.Store.quarantined r.Store.tmp_swept
      r.Store.bytes_freed;
    Ok ()
  in
  exit_of_result result

let store_cmd =
  let keep =
    Arg.(
      value & opt int 2
      & info [ "keep" ] ~docv:"N"
          ~doc:
            "Generations to keep: entries last touched within $(docv) \
             generations of the current one survive; older ones are swept.")
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain a persistent result store (the directory given \
          to $(b,ifc batch --store) / $(b,ifc serve --store).")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:"Print generation, entry/summary counts and bytes on disk.")
        Term.(const run_store_stats $ store_pos_arg);
      Cmd.v
        (Cmd.info "verify"
           ~doc:
             "Structurally verify every entry: checksums, framing, digest/file \
              name agreement, parseable certificate artifacts. Damaged or \
              junk files are moved to quarantine/. Exit code 2 if anything \
              was quarantined.")
        Term.(const run_store_verify $ store_pos_arg);
      Cmd.v
        (Cmd.info "gc"
           ~doc:
             "Mark-and-sweep by generation: drop entries that have not been \
              touched for --keep generations, and clear staging leftovers.")
        Term.(const run_store_gc $ store_pos_arg $ keep);
    ]

(* ------------------------------------------------------------------ *)
(* modsys *)

let open_summary_store = function
  | None -> Ok None
  | Some dir ->
    let* s = Store.open_ dir in
    Ok (Some s)

let run_modsys_summary lattice_name store_dir path =
  exit_of_result
    (let* lat = load_lattice lattice_name in
     let* l = load_linked path in
     let* store = open_summary_store store_dir in
     let* () =
       List.fold_left
         (fun acc (m : Ast.module_unit) ->
           let* () = acc in
           let* s, stored = Msummary.resolve ?store ~lattice:lat m in
           Fmt.pr "module %s (%s)@." s.Linked.m_name
             (if stored then "store" else "fresh");
           List.iter (fun line -> Fmt.pr "%s@." line) (Linked.summary_to_lines s);
           Ok ())
         (Ok ()) l.Ast.modules
     in
     Ok ())

let run_modsys_link lattice_name store_dir out components_dir path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* l = load_linked path in
     let* store = open_summary_store store_dir in
     let* outcome = Mlink.certify ?store ~lattice:lat l in
     Fmt.epr "link: %d summaries computed, %d reused from store@."
       outcome.Mlink.computed outcome.Mlink.reused;
     if not outcome.Mlink.ok then begin
       Fmt.pr "linked unit REJECTED:@.";
       List.iter (fun i -> Fmt.pr "  %s@." i) outcome.Mlink.issues;
       Ok false
     end
     else
       let* text, components = Mlink.emit ~lattice:lat l outcome in
       let* () =
         match components_dir with
         | None -> Ok ()
         | Some dir ->
           let* () =
             try
               if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
               Ok ()
             with Unix.Unix_error (e, _, _) ->
               Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))
           in
           List.fold_left
             (fun acc (name, ctext) ->
               let* () = acc in
               let file = Filename.concat dir (name ^ ".cert") in
               let* () = write_file file ctext in
               Fmt.epr "component certificate written to %s@." file;
               Ok ())
             (Ok ()) components
       in
       (match out with
       | None ->
         print_string text;
         Ok true
       | Some out ->
         let* () = write_file out text in
         Fmt.pr "linked certificate written to %s (%d bytes, %d summaries)@."
           out (String.length text)
           (List.length outcome.Mlink.summaries);
         Ok true))

let run_modsys_refine lattice_name module_name unit_path replacement_path =
  exit_of_verdict
    (let* lat = load_lattice lattice_name in
     let* l = load_linked unit_path in
     let* base =
       match module_name with
       | None -> (
         match l.Ast.modules with
         | m :: _ -> Ok m
         | [] -> Error (unit_path ^ ": contains no module clause"))
       | Some n -> (
         match
           List.find_opt
             (fun (m : Ast.module_unit) -> m.Ast.iface.Ast.m_name = n)
             l.Ast.modules
         with
         | Some m -> Ok m
         | None -> Error (Printf.sprintf "%s: no module named %s" unit_path n))
     in
     let* repl = load_module replacement_path in
     let* report = Mrefine.check_against ~lattice:lat ~base repl in
     if report.Mrefine.ok then begin
       Fmt.pr "refinement ACCEPTED: %s may replace %s (every certified link \
               stays certified)@."
         repl.Ast.iface.Ast.m_name base.Ast.iface.Ast.m_name;
       Ok true
     end
     else begin
       Fmt.pr "refinement REJECTED: %s may not replace %s:@."
         repl.Ast.iface.Ast.m_name base.Ast.iface.Ast.m_name;
       List.iter (fun r -> Fmt.pr "  %s@." r) report.Mrefine.reasons;
       Ok false
     end)

let modsys_cmd =
  let unit_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"UNIT"
          ~doc:"Linked unit file: module clauses plus an optional main program.")
  in
  let summary_store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persist and reuse module summaries keyed by structural digest: \
             a module whose text, lattice and default binding are unchanged \
             is answered from $(docv) instead of being re-summarized.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the linked certificate to $(docv) instead of standard \
                output.")
  in
  let components_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "components" ] ~docv:"DIR"
          ~doc:
            "Also write each module's component certificate (a version-1 \
             proof of its import-closed body, when one exists) to \
             $(docv)/$(i,name).cert, for $(b,ifc cert check --component).")
  in
  let module_name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "module" ] ~docv:"NAME"
          ~doc:"Base module to replace (defaults to the unit's first module).")
  in
  let replacement_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"REPLACEMENT"
          ~doc:"Replacement module file (a single module clause).")
  in
  let summary =
    Cmd.v
      (Cmd.info "summary"
         ~doc:
           "Summarize each module of a linked unit: symbolic mod/flow over \
            its imports, residual constraints, channel and semaphore \
            obligations, export conformance — everything linking needs, \
            keyed by the module's structural digest.")
      Term.(
        const run_modsys_summary $ lattice_arg $ summary_store_arg $ unit_arg)
  in
  let link =
    Cmd.v
      (Cmd.info "link"
         ~doc:
           "Certify a linked unit from module summaries alone — module \
            bodies are never re-walked at link time — and emit the \
            $(b,ifc-cert 2) linked certificate. The verdict coincides \
            byte-for-byte with whole-program CFM on the elaborated unit. \
            Exit 2 when the unit does not certify.")
      Term.(
        const run_modsys_link $ lattice_arg $ summary_store_arg $ out_arg
        $ components_dir_arg $ unit_arg)
  in
  let refine =
    Cmd.v
      (Cmd.info "refine"
         ~doc:
           "Check that a replacement module is a security-preserving \
            refinement of a unit's module: summaries compare monotonically \
            (constraints, flow, mod, obligations, interface), so every \
            certified link stays certified after the swap. Exit 2 on \
            rejection.")
      Term.(
        const run_modsys_refine $ lattice_arg $ module_name_arg $ unit_arg
        $ replacement_arg)
  in
  Cmd.group
    (Cmd.info "modsys"
       ~doc:
         "Compositional certification: module summaries, summary-based \
          linking and security-preserving refinement (see DESIGN.md).")
    [ summary; link; refine ]

(* ------------------------------------------------------------------ *)

let run_fmt path =
  exit_of_result
    (let* p = load_program path in
     Fmt.pr "%s@." (Pretty.program_to_string p);
     Ok ())

let fmt_cmd =
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse a program and reprint it canonically formatted.")
    Term.(const run_fmt $ program_arg)

let rules_cmd =
  Cmd.v
    (Cmd.info "rules" ~doc:"Print the paper's Figure 1 and Figure 2 as a reference card.")
    Term.(const (fun () -> Fmt.pr "%s@." rules_text; 0) $ const ())

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "ifc" ~version:"1.0.0"
       ~doc:
         "Information-flow certification for parallel programs — a reproduction of \
          Reitman's Concurrent Flow Mechanism (SOSP 1979).")
    [
      check_cmd;
      denning_cmd;
      lint_cmd;
      infer_cmd;
      prove_cmd;
      cert_cmd;
      run_cmd;
      explore_cmd;
      taint_cmd;
      ni_cmd;
      batch_cmd;
      modsys_cmd;
      fuzz_cmd;
      serve_cmd;
      client_cmd;
      loadgen_cmd;
      store_cmd;
      lattice_cmd;
      gen_cmd;
      fmt_cmd;
      rules_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
