(* Summary-based linking. certify evaluates summaries under the linked
   binding; emit packages the verdict as an ifc-cert 2 certificate. The
   flow verdict must coincide exactly with whole-program CFM on the
   elaboration — the round-trip tests byte-compare the two. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Wellformed = Ifc_lang.Wellformed
module Key = Ifc_lang.Key
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Cert = Ifc_cert.Cert
module Linked = Ifc_cert.Linked
module Emit = Ifc_logic_gen.Emit
module Store = Ifc_store.Store
module Sset = Ifc_support.Sset

type outcome = {
  ok : bool;
  cert_ok : bool;
  iface_ok : bool;
  issues : string list;
  summaries : Linked.summary list;
  computed : int;
  reused : int;
  binding : string Binding.t;
}

let elaborate (l : Ast.linked) =
  let module_decls = List.concat_map (fun (m : Ast.module_unit) -> m.Ast.m_decls) l.modules in
  let main_decls, main_bodies =
    match l.main with None -> ([], []) | Some p -> (p.Ast.decls, [ p.Ast.body ])
  in
  let bodies =
    List.map (fun (m : Ast.module_unit) -> m.Ast.m_body) l.modules @ main_bodies
  in
  { Ast.decls = module_decls @ main_decls; body = Ast.seq bodies }

let binding ~lattice ?default l = Binding.of_program lattice ?default (elaborate l)

let render_constr = function
  | Linked.Upper (y, k) -> Printf.sprintf "cls(%s) <= const(%s)" y k
  | Linked.Lower (k, y) -> Printf.sprintf "const(%s) <= cls(%s)" k y
  | Linked.Rel (y, z) -> Printf.sprintf "cls(%s) <= cls(%s)" y z

(* Resolve each module to a summary, store-backed when possible. *)
let summaries ?store ~lattice ?default (l : Ast.linked) =
  let rec go acc computed reused = function
    | [] -> Ok (List.rev acc, computed, reused)
    | m :: rest ->
      Result.bind (Summary.resolve ?store ~lattice ?default m) (fun (s, stored) ->
          if stored then go (s :: acc) computed (reused + 1) rest
          else go (s :: acc) (computed + 1) reused rest)
  in
  go [] 0 0 l.Ast.modules

let certify ?store ~lattice ?default (l : Ast.linked) =
  match Wellformed.linked_errors l with
  | { Wellformed.message; _ } :: _ -> Error ("ill-formed linked unit: " ^ message)
  | [] -> (
    match binding ~lattice ?default l with
    | Error e -> Error e
    | Ok bind -> (
      match summaries ?store ~lattice ?default l with
      | Error e -> Error e
      | Ok (sums, computed, reused) ->
        let issues = ref [] in
        let cert_ok = ref true and iface_ok = ref true in
        let flow_issue fmt =
          Printf.ksprintf
            (fun s ->
              cert_ok := false;
              issues := s :: !issues)
            fmt
        in
        let iface_issue fmt =
          Printf.ksprintf
            (fun s ->
              iface_ok := false;
              issues := s :: !issues)
            fmt
        in
        let cls y = Some (lattice.Lattice.to_string (Binding.sbind bind y)) in
        (* Per-summary verdicts: discharged locals, residual constraints
           under the linked binding, interface conformance. *)
        List.iter
          (fun (s : Linked.summary) ->
            if not s.Linked.locals_ok then
              flow_issue "module %s: an import-free internal check fails" s.Linked.m_name;
            List.iter
              (fun c ->
                match Summary.eval_constr ~lattice ~cls c with
                | Some true -> ()
                | Some false ->
                  flow_issue "module %s: residual constraint %s does not hold"
                    s.Linked.m_name (render_constr c)
                | None ->
                  flow_issue "module %s: residual constraint %s does not resolve"
                    s.Linked.m_name (render_constr c))
              s.Linked.constraints;
            if not s.Linked.exports_ok then
              iface_issue "module %s: an export class exceeds its provides bound"
                s.Linked.m_name;
            List.iter
              (fun (y, bound) ->
                match lattice.Lattice.of_string bound with
                | Error _ ->
                  iface_issue "module %s: unknown class %s in requires bound"
                    s.Linked.m_name bound
                | Ok b ->
                  if not (lattice.Lattice.leq b (Binding.sbind bind y)) then
                    iface_issue
                      "module %s: import %s links below its required bound %s"
                      s.Linked.m_name y bound)
              s.Linked.requires)
          sums;
        (* The link step: top-level sequential composition over the
           summaries' symbolic mod/flow; main — the link's own body — is
           walked directly. Mirrors CFM's Seq rule, i = 0 skipped. *)
        let items =
          List.map
            (fun (s : Linked.summary) ->
              ( s.Linked.m_name,
                Summary.resolve_smod ~lattice ~cls s.Linked.smod,
                Summary.resolve_sflow ~lattice ~cls s.Linked.sflow ))
            sums
          @
          match l.Ast.main with
          | None -> []
          | Some p ->
            let r = Cfm.fold (Cfm.algebra bind) ~self_check:false p.Ast.body in
            if not r.Cfm.cert then
              flow_issue "main program fails certification under the linked binding";
            [ ("main", Some r.Cfm.mod_, Some r.Cfm.flow) ]
        in
        let _ =
          List.fold_left
            (fun (i, prefix) (name, mod_, flow) ->
              (match (mod_, prefix) with
              | None, _ ->
                flow_issue "module %s: summary mod does not resolve" name
              | Some m, Extended.El f when i > 0 ->
                if not (lattice.Lattice.leq f m) then
                  flow_issue
                    "link %d: prefix flow does not settle below mod of %s" i name
              | Some _, _ -> ());
              let prefix =
                match flow with
                | Some f -> Extended.join lattice.Lattice.join prefix f
                | None ->
                  flow_issue "module %s: summary flow does not resolve" name;
                  prefix
              in
              (i + 1, prefix))
            (0, Extended.Nil) items
        in
        Ok
          {
            ok = !cert_ok && !iface_ok;
            cert_ok = !cert_ok;
            iface_ok = !iface_ok;
            issues = List.rev !issues;
            summaries = sums;
            computed;
            reused;
            binding = bind;
          }))

let emit ~lattice ?default (l : Ast.linked) outcome =
  if not outcome.ok then
    Error
      ("linked unit does not certify: "
      ^ String.concat "; " (if outcome.issues = [] then [ "?" ] else outcome.issues))
  else
    let bind = outcome.binding in
    let to_s = lattice.Lattice.to_string in
    let binds =
      Sset.elements (Linked.bind_domain l)
      |> List.map (fun v -> (v, to_s (Binding.sbind bind v)))
    in
    (* Component certificates: a version-1 proof of each module's
       import-closed body, when CFM certifies it (a module may certify
       only in its linked context — then the summary stands alone and its
       cert field stays "-"). The self-check below checks them. *)
    let components, summaries =
      List.fold_left2
        (fun (comps, sums) (m : Ast.module_unit) (s : Linked.summary) ->
          let keep () = (comps, s :: sums) in
          let cp = Linked.closed_program m in
          match Binding.of_program lattice ?default cp with
          | Error _ -> keep ()
          | Ok cb -> (
            match Emit.derivation cb cp with
            | None -> keep ()
            | Some proof ->
              let text =
                Cert.to_string (Cert.of_proof ~binding:cb ~program:cp proof)
              in
              let digest = Digest.to_hex (Digest.string text) in
              ( (s.Linked.m_name, text) :: comps,
                { s with Linked.cert_digest = Some digest } :: sums )))
        ([], []) l.Ast.modules outcome.summaries
      |> fun (comps, sums) -> (List.rev comps, List.rev sums)
    in
    let main_cert =
      match Linked.main_program ~binds l with
      | None -> Ok None
      | Some mp -> (
        match Emit.derivation bind mp with
        | Some proof -> Ok (Some (Cert.of_proof ~binding:bind ~program:mp proof))
        | None -> Error "main program admits no invariant proof")
    in
    Result.bind main_cert (fun main_cert ->
        let cert =
          {
            Linked.linked_digest = Key.linked_digest l;
            lattice;
            binds;
            summaries;
            main_cert;
          }
        in
        let text = Linked.to_string cert in
        (* Self-check before handing the certificate out. *)
        match Linked.parse text with
        | Error e ->
          Error
            (Printf.sprintf "emitted certificate does not parse (line %d: %s)"
               e.Cert.line e.Cert.reason)
        | Ok parsed -> (
          match Linked.check ~components:(List.map snd components) parsed l with
          | Ok () -> Ok (text, components)
          | Error fs ->
            let show (f : Linked.failure) =
              Printf.sprintf "%s: %s: %s" f.Linked.path f.Linked.rule f.Linked.reason
            in
            Error
              ("emitted certificate fails self-check: "
              ^ String.concat "; " (List.map show fs))))

(* A digest-cached pipeline analysis for a linked unit. The closure
   ignores the spec's binding/program (the elaboration — equal inputs by
   construction) and re-derives everything from the unit; the cache key
   carries the linked digest, which also covers the interface bounds the
   elaboration does not record. *)
let job_analysis ?store ~lattice ?default (l : Ast.linked) =
  Ifc_pipeline.Job.Link
    ( Key.linked_digest l,
      fun _binding _program ->
        match certify ?store ~lattice ?default l with
        | Error _ -> (false, 0, None)
        | Ok o ->
          let checks =
            List.fold_left
              (fun acc (s : Linked.summary) ->
                acc + 1 + List.length s.Linked.constraints)
              0 o.summaries
          in
          if not o.ok then (false, checks, None)
          else (
            match emit ~lattice ?default l o with
            | Ok (text, _) -> (true, checks, Some text)
            | Error _ -> (false, checks, None)) )
