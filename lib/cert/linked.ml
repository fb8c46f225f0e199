(* The ifc-cert 2 linked-certificate format and its independent checker.
   See the interface for the trust contract. *)

module Lattice = Ifc_lattice.Lattice
module Spec = Ifc_lattice.Spec
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Key = Ifc_lang.Key
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Sset = Ifc_support.Sset

type constr =
  | Upper of string * string
  | Lower of string * string
  | Rel of string * string

type smod = { floor : string; under : string list }

type sflow = F_nil | F_sym of { base : string; over : string list }

type summary = {
  m_name : string;
  body_digest : string;
  cert_digest : string option;
  provides : (string * string) list;
  requires : (string * string) list;
  exports : (string * string) list;
  smod : smod;
  sflow : sflow;
  constraints : constr list;
  sends : string list;
  recvs : string list;
  waits : string list;
  signals : string list;
  locals_ok : bool;
  exports_ok : bool;
}

type t = {
  linked_digest : string;
  lattice : string Lattice.t;
  binds : (string * string) list;
  summaries : summary list;
  main_cert : Cert.t option;
}

let version = 2

let closed_program (m : Ast.module_unit) =
  let imports =
    List.map
      (fun (e : Ast.iface_entry) ->
        Ast.Var_decl { name = e.iv_name; cls = Some e.iv_class })
      m.iface.requires
  in
  { Ast.decls = m.m_decls @ imports; body = m.m_body }

let main_program ~binds (l : Ast.linked) =
  match l.main with
  | None -> None
  | Some p ->
    let declared =
      List.map
        (function
          | Ast.Var_decl { name; _ }
          | Ast.Arr_decl { name; _ }
          | Ast.Sem_decl { name; _ }
          | Ast.Chan_decl { name; _ } ->
            name)
        p.decls
      |> Sset.of_list
    in
    let exports =
      List.concat_map
        (fun (m : Ast.module_unit) ->
          List.filter_map
            (fun (e : Ast.iface_entry) ->
              if Sset.mem e.iv_name declared then None
              else
                Some
                  (Ast.Var_decl
                     { name = e.iv_name; cls = List.assoc_opt e.iv_name binds }))
            m.iface.provides)
        l.modules
    in
    Some { p with decls = p.decls @ exports }

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* Canonical constraint order: constructor rank, then operands. *)
let constr_key = function
  | Upper (y, k) -> (0, y, k)
  | Lower (k, y) -> (1, y, k)
  | Rel (y, z) -> (2, y, z)

let sort_constraints cs =
  List.sort_uniq (fun a b -> compare (constr_key a) (constr_key b)) cs

let render_constr = function
  | Upper (y, k) -> Printf.sprintf "cls(%s) <= const(%s)" y k
  | Lower (k, y) -> Printf.sprintf "const(%s) <= cls(%s)" k y
  | Rel (y, z) -> Printf.sprintf "cls(%s) <= cls(%s)" y z

let render_smod (m : smod) =
  let atoms = List.map (fun y -> "cls(" ^ y ^ ")") (List.sort_uniq compare m.under) in
  if atoms = [] then "const(" ^ m.floor ^ ")"
  else String.concat " * " (atoms @ [ "const(" ^ m.floor ^ ")" ])

let render_sflow = function
  | F_nil -> "nil"
  | F_sym { base; over } ->
    let atoms = List.map (fun y -> "cls(" ^ y ^ ")") (List.sort_uniq compare over) in
    if atoms = [] then "const(" ^ base ^ ")"
    else String.concat " + " (atoms @ [ "const(" ^ base ^ ")" ])

let render_iface rel entries =
  if entries = [] then "-"
  else
    String.concat ", "
      (List.map (fun (n, k) -> Printf.sprintf "%s %s %s" n rel k) entries)

let render_exports entries =
  if entries = [] then "-"
  else String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "%s = %s" n c) entries)

let render_group name xs =
  Printf.sprintf "%s(%s)" name (String.concat "," (List.sort_uniq compare xs))

let summary_to_lines (s : summary) =
  [
    Printf.sprintf "summary %s:" s.m_name;
    Printf.sprintf "  body: %s" s.body_digest;
    Printf.sprintf "  cert: %s" (Option.value s.cert_digest ~default:"-");
    Printf.sprintf "  provides: %s" (render_iface "<=" s.provides);
    Printf.sprintf "  requires: %s" (render_iface ">=" s.requires);
    Printf.sprintf "  exports: %s" (render_exports s.exports);
    Printf.sprintf "  mod: %s" (render_smod s.smod);
    Printf.sprintf "  flow: %s" (render_sflow s.sflow);
    Printf.sprintf "  constraints: {%s}"
      (String.concat "; " (List.map render_constr (sort_constraints s.constraints)));
    Printf.sprintf "  obligations: %s %s %s %s" (render_group "sends" s.sends)
      (render_group "recvs" s.recvs) (render_group "waits" s.waits)
      (render_group "signals" s.signals);
    Printf.sprintf "  locals: %s" (if s.locals_ok then "ok" else "fail");
    Printf.sprintf "  bounds: %s" (if s.exports_ok then "ok" else "fail");
  ]

let summary_to_line s = String.concat "\t" (summary_to_lines s)

let to_string (c : t) =
  let buf = Buffer.create 1024 in
  let line fmt = Cert.line buf fmt in
  Cert.write_header buf ~version ~label:"linked" ~digest:c.linked_digest c.lattice
    c.binds;
  line "summaries: %d" (List.length c.summaries);
  List.iter (fun s -> List.iter (fun l -> line "%s" l) (summary_to_lines s)) c.summaries;
  (match c.main_cert with
  | None -> line "main: 0"
  | Some cert ->
    line "main: 1";
    Buffer.add_string buf (Cert.to_string cert));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Strict parsing *)

type parse_error = Cert.parse_error = { line : int; reason : string }

let fail = Cert.fail

let chop_prefix = Cert.chop_prefix

let split_str = Cert.split_str

let valid_name v =
  v <> "" && not (String.exists (fun c -> c = ' ' || c = '(' || c = ')' || c = ',') v)

(* "cls(y)" -> y, or "const(k)" -> k, under the given head. *)
let unwrap head ln s =
  match chop_prefix ~prefix:(head ^ "(") s with
  | Some rest when String.length rest > 0 && rest.[String.length rest - 1] = ')' ->
    let v = String.sub rest 0 (String.length rest - 1) in
    if valid_name v then v
    else fail ln (Printf.sprintf "malformed %s atom %S" head s)
  | _ -> fail ln (Printf.sprintf "expected %s(...), found %S" head s)

let parse_smod element ln s =
  match List.rev (split_str " * " s) with
  | [] -> fail ln "empty mod"
  | last :: rev_atoms ->
    let floor = element ln (unwrap "const" ln last) in
    let under = List.rev_map (fun a -> unwrap "cls" ln a) rev_atoms in
    if rev_atoms <> [] && List.length (List.sort_uniq compare under) <> List.length under
    then fail ln "duplicate cls atom in mod"
    else { floor; under = List.sort_uniq compare under }

let parse_sflow element ln s =
  if String.equal s "nil" then F_nil
  else
    match List.rev (split_str " + " s) with
    | [] -> fail ln "empty flow"
    | last :: rev_atoms ->
      let base = element ln (unwrap "const" ln last) in
      let over = List.rev_map (fun a -> unwrap "cls" ln a) rev_atoms in
      F_sym { base; over = List.sort_uniq compare over }

let parse_constr element ln s =
  match split_str " <= " s with
  | [ lhs; rhs ] -> (
    let cls_of p = chop_prefix ~prefix:"cls(" p in
    match (cls_of lhs, cls_of rhs) with
    | Some _, Some _ -> Rel (unwrap "cls" ln lhs, unwrap "cls" ln rhs)
    | Some _, None -> Upper (unwrap "cls" ln lhs, element ln (unwrap "const" ln rhs))
    | None, Some _ -> Lower (element ln (unwrap "const" ln lhs), unwrap "cls" ln rhs)
    | None, None -> fail ln (Printf.sprintf "constraint %S relates two constants" s))
  | _ -> fail ln (Printf.sprintf "malformed constraint %S" s)

let parse_iface rel ln s =
  if String.equal s "-" then []
  else
    split_str ", " s
    |> List.map (fun entry ->
           match split_str (" " ^ rel ^ " ") entry with
           | [ name; cls ] when valid_name name && valid_name cls -> (name, cls)
           | _ -> fail ln (Printf.sprintf "malformed interface entry %S" entry))

let parse_exports ln s =
  if String.equal s "-" then []
  else
    split_str ", " s
    |> List.map (fun entry ->
           match split_str " = " entry with
           | [ name; cls ] when valid_name name && valid_name cls -> (name, cls)
           | _ -> fail ln (Printf.sprintf "malformed export entry %S" entry))

let parse_group name ln s =
  match chop_prefix ~prefix:(name ^ "(") s with
  | Some rest when String.length rest > 0 && rest.[String.length rest - 1] = ')' ->
    let inner = String.sub rest 0 (String.length rest - 1) in
    if inner = "" then []
    else
      String.split_on_char ',' inner
      |> List.map (fun v ->
             if valid_name v then v
             else fail ln (Printf.sprintf "malformed %s name %S" name v))
  | _ -> fail ln (Printf.sprintf "expected %s(...), found %S" name s)

let parse_ok_fail ln s =
  match s with
  | "ok" -> true
  | "fail" -> false
  | _ -> fail ln (Printf.sprintf "expected \"ok\" or \"fail\", found %S" s)

(* Parse one summary block from an array of (lineno, line) pairs. *)
let parse_summary_block element next =
  let field prefix =
    let ln, l = next ("\"" ^ prefix ^ "\"") in
    match chop_prefix ~prefix:("  " ^ prefix ^ ": ") l with
    | Some rest -> (ln, rest)
    | None -> fail ln (Printf.sprintf "expected \"  %s: ...\"" prefix)
  in
  let ln, l = next "summary header" in
  let m_name =
    match chop_prefix ~prefix:"summary " l with
    | Some rest when String.length rest > 0 && rest.[String.length rest - 1] = ':' ->
      let n = String.sub rest 0 (String.length rest - 1) in
      if valid_name n then n else fail ln (Printf.sprintf "malformed module name %S" n)
    | _ -> fail ln "expected \"summary <name>:\""
  in
  let ln, body_digest = field "body" in
  if not (Cert.valid_digest body_digest) then fail ln "malformed body digest";
  let ln, cert = field "cert" in
  let cert_digest =
    if String.equal cert "-" then None
    else if Cert.valid_digest cert then Some cert
    else fail ln "malformed component certificate digest"
  in
  let ln, s = field "provides" in
  let provides = parse_iface "<=" ln s in
  let ln, s = field "requires" in
  let requires = parse_iface ">=" ln s in
  let ln, s = field "exports" in
  let exports = parse_exports ln s in
  List.iter (fun (_, c) -> ignore (element ln c)) (provides @ requires @ exports);
  let ln, s = field "mod" in
  let smod = parse_smod element ln s in
  let ln, s = field "flow" in
  let sflow = parse_sflow element ln s in
  let ln, s = field "constraints" in
  let constraints =
    let n = String.length s in
    if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then
      fail ln "constraints must be of the form {...}"
    else
      let inner = String.sub s 1 (n - 2) in
      if String.equal inner "" then []
      else split_str "; " inner |> List.map (parse_constr element ln)
  in
  let ln, s = field "obligations" in
  let sends, recvs, waits, signals =
    match split_str ") " s with
    | [ a; b; c; d ] ->
      ( parse_group "sends" ln (a ^ ")"),
        parse_group "recvs" ln (b ^ ")"),
        parse_group "waits" ln (c ^ ")"),
        parse_group "signals" ln d )
    | _ -> fail ln "expected \"sends(...) recvs(...) waits(...) signals(...)\""
  in
  let ln, s = field "locals" in
  let locals_ok = parse_ok_fail ln s in
  let ln, s = field "bounds" in
  let exports_ok = parse_ok_fail ln s in
  {
    m_name;
    body_digest;
    cert_digest;
    provides;
    requires;
    exports;
    smod;
    sflow;
    constraints = sort_constraints constraints;
    sends;
    recvs;
    waits;
    signals;
    locals_ok;
    exports_ok;
  }

let parse_exn text =
  let c, digest, lat, binds =
    Cert.read_header text ~version ~label:"linked" ~noun:"linked-certificate"
  in
  let next = Cert.next c and element = Cert.element lat in
  let ln, l = next "summary count" in
  let declared =
    match chop_prefix ~prefix:"summaries: " l with
    | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> fail ln "malformed summary count")
    | None -> fail ln "expected \"summaries: <count>\""
  in
  let summaries = List.init declared (fun _ -> parse_summary_block element next) in
  let ln, l = next "main marker" in
  let has_main =
    match chop_prefix ~prefix:"main: " l with
    | Some "1" -> true
    | Some "0" -> false
    | _ -> fail ln "expected \"main: 0\" or \"main: 1\""
  in
  let main_cert =
    if not has_main then begin
      Cert.finish c;
      None
    end
    else begin
      let lines = c.Cert.lines and first = c.Cert.pos in
      if first >= Array.length lines then
        fail (first + 1) "expected an embedded version-1 certificate after \"main: 1\"";
      let rest =
        String.concat "\n"
          (Array.to_list (Array.sub lines first (Array.length lines - first)))
        ^ "\n"
      in
      match Cert.parse rest with
      | Ok c -> Some c
      | Error e ->
        fail (first + e.line)
          ("embedded main certificate: " ^ Fmt.str "%a" Cert.pp_parse_error e)
    end
  in
  { linked_digest = digest; lattice = lat; binds; summaries; main_cert }

let parse text =
  try Ok (parse_exn text) with
  | Cert.Fail e -> Error e
  | exn -> Error { line = 0; reason = "internal error: " ^ Printexc.to_string exn }

let summary_of_line line =
  let lines = String.split_on_char '\t' line in
  let remaining = ref lines in
  let next what =
    match !remaining with
    | l :: rest ->
      remaining := rest;
      (0, l)
    | [] -> fail 0 ("unexpected end of summary line: expected " ^ what)
  in
  (* The single-line form is self-contained: class names are kept as
     strings and validated by the consumer against its lattice. *)
  let element _ln cls = cls in
  try
    let s = parse_summary_block element next in
    match !remaining with
    | [] -> Ok s
    | l :: _ -> Error (Printf.sprintf "trailing summary data: %S" l)
  with
  | Cert.Fail e -> Error e.reason
  | exn -> Error ("internal error: " ^ Printexc.to_string exn)

let sniff_version text =
  match String.index_opt text '\n' with
  | None -> None
  | Some i -> (
    let first = String.sub text 0 i in
    match chop_prefix ~prefix:"ifc-cert " first with
    | Some v -> int_of_string_opt v
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Checking *)

type failure = Checker.failure = { path : string; rule : string; reason : string }

(* The binding domain a linked certificate must cover: every variable of
   every body plus every interface name (an export may be unused and
   still needs its class on record for bound checks). *)
let bind_domain (l : Ast.linked) =
  let of_module (m : Ast.module_unit) =
    let iface_names =
      List.map (fun (e : Ast.iface_entry) -> e.iv_name) m.iface.provides
      @ List.map (fun (e : Ast.iface_entry) -> e.iv_name) m.iface.requires
    in
    Sset.union (Vars.all_vars m.m_body) (Sset.of_list iface_names)
  in
  let modules =
    List.fold_left (fun acc m -> Sset.union acc (of_module m)) Sset.empty l.modules
  in
  match l.main with
  | None -> modules
  | Some p -> Sset.union modules (Vars.all_vars p.body)

let check ?(components = []) (c : t) (l : Ast.linked) =
  let failures = ref [] in
  let add path rule reason = failures := { path; rule; reason } :: !failures in
  let lat = c.lattice in
  let element cls = lat.Lattice.of_string cls in
  let cls_of path y =
    match List.assoc_opt y c.binds with
    | Some s -> (
      match element s with
      | Ok v -> Some v
      | Error _ ->
        add path "binding" (Printf.sprintf "class of %s does not parse" y);
        None)
    | None ->
      add path "binding" (Printf.sprintf "no recorded class for %s" y);
      None
  in
  (* Unit digest. *)
  if not (String.equal (Key.linked_digest l) c.linked_digest) then
    add "program" "digest" "certificate was issued for a different linked unit";
  (* Binding domain and class validity. *)
  let expected = bind_domain l in
  let recorded = Sset.of_list (List.map fst c.binds) in
  Sset.iter
    (fun v ->
      if not (Sset.mem v recorded) then
        add "binding" "coverage" (Printf.sprintf "variable %s has no recorded class" v))
    expected;
  Sset.iter
    (fun v ->
      if not (Sset.mem v expected) then
        add "binding" "coverage"
          (Printf.sprintf "recorded class for %s, which the unit does not mention" v))
    recorded;
  (* Summary nodes, one per module in order. *)
  let n_sum = List.length c.summaries and n_mod = List.length l.modules in
  if n_sum <> n_mod then
    add "program" "summaries"
      (Printf.sprintf "certificate carries %d summaries for %d modules" n_sum n_mod);
  let iface_entries entries =
    List.map (fun (e : Ast.iface_entry) -> (e.iv_name, e.iv_class)) entries
  in
  let rec pair ms ss =
    match (ms, ss) with
    | m :: ms', s :: ss' -> (m, s) :: pair ms' ss'
    | _ -> []
  in
  let paired = pair l.modules c.summaries in
  List.iter
    (fun ((m : Ast.module_unit), (s : summary)) ->
      let path = "summary " ^ s.m_name in
      if not (String.equal m.iface.m_name s.m_name) then
        add path "name"
          (Printf.sprintf "summary names %s but the unit's module is %s" s.m_name
             m.iface.m_name);
      if not (String.equal (Key.module_digest m) s.body_digest) then
        add path "digest" "summary was issued for a different module body";
      if s.provides <> iface_entries m.iface.provides then
        add path "provides" "recorded provides clause differs from the unit's";
      if s.requires <> iface_entries m.iface.requires then
        add path "requires" "recorded requires clause differs from the unit's";
      if not s.locals_ok then
        add path "locals" "module's concrete internal checks failed at summary time";
      if not s.exports_ok then
        add path "bounds" "module's export classes violate its interface bounds";
      (* Exports: one per provides entry, class consistent with the
         recorded binding, bound re-evaluated here. *)
      if List.map fst s.exports <> List.map fst s.provides then
        add path "exports" "exports do not list exactly the provided names"
      else
        List.iter2
          (fun (x, cls) (_, bound) ->
            (match List.assoc_opt x c.binds with
            | Some b when String.equal b cls -> ()
            | Some b ->
              add path "exports"
                (Printf.sprintf "export %s recorded at %s but bound at %s" x cls b)
            | None ->
              add path "exports" (Printf.sprintf "export %s missing from binding" x));
            match (element cls, element bound) with
            | Ok cv, Ok bv ->
              if not (lat.Lattice.leq cv bv) then
                add path "bounds"
                  (Printf.sprintf "export %s has class %s above its bound %s" x cls
                     bound)
            | _ ->
              add path "bounds" (Printf.sprintf "export %s has an unknown class" x))
          s.exports s.provides;
      (* Residual constraints, re-evaluated under the recorded binding. *)
      List.iter
        (fun constr ->
          let ok =
            match constr with
            | Upper (y, k) -> (
              match (cls_of path y, element k) with
              | Some cy, Ok kv -> lat.Lattice.leq cy kv
              | _ -> false)
            | Lower (k, y) -> (
              match (cls_of path y, element k) with
              | Some cy, Ok kv -> lat.Lattice.leq kv cy
              | _ -> false)
            | Rel (y, z) -> (
              match (cls_of path y, cls_of path z) with
              | Some cy, Some cz -> lat.Lattice.leq cy cz
              | _ -> false)
          in
          if not ok then
            add path "constraint"
              (Printf.sprintf "residual constraint %s does not hold"
                 (render_constr constr)))
        s.constraints)
    paired;
  (* The link step: top-level sequential composition over summary
     mod/flow, with the main program's mod/flow computed directly (the
     checker re-walks main — never a module body). *)
  let binding =
    let resolved =
      List.filter_map
        (fun (v, cls) ->
          match element cls with Ok c -> Some (v, c) | Error _ -> None)
        c.binds
    in
    Binding.make lat resolved
  in
  let resolve_smod path (m : smod) =
    let floor = match element m.floor with Ok v -> Some v | Error _ -> None in
    let parts =
      floor :: List.map (fun y -> cls_of path y) m.under
    in
    if List.exists Option.is_none parts then None
    else Some (Lattice.meets lat (List.filter_map Fun.id parts))
  in
  let resolve_sflow path = function
    | F_nil -> Some Extended.Nil
    | F_sym { base; over } ->
      let base = match element base with Ok v -> Some v | Error _ -> None in
      let parts = base :: List.map (fun y -> cls_of path y) over in
      if List.exists Option.is_none parts then None
      else Some (Extended.El (Lattice.joins lat (List.filter_map Fun.id parts)))
  in
  if n_sum = n_mod then begin
    let items =
      List.map
        (fun (s : summary) ->
          let path = "summary " ^ s.m_name in
          (s.m_name, resolve_smod path s.smod, resolve_sflow path s.sflow))
        c.summaries
      @
      match l.main with
      | None -> []
      | Some p ->
        let r = Cfm.analyze binding p.Ast.body in
        [ ("main", Some r.Cfm.mod_, Some r.Cfm.flow) ]
    in
    let flow_join f1 f2 =
      match (f1, f2) with
      | Extended.Nil, f | f, Extended.Nil -> f
      | Extended.El a, Extended.El b -> Extended.El (lat.Lattice.join a b)
    in
    let _, _ =
      List.fold_left
        (fun (i, prefix) (name, mod_, flow) ->
          (match (mod_, prefix) with
          | Some m, Extended.El f when i > 0 ->
            if not (lat.Lattice.leq f m) then
              add (Printf.sprintf "link %d" i) "composition"
                (Printf.sprintf
                   "prefix flow does not settle below mod of %s in the linked \
                    sequence"
                   name)
          | _ -> ());
          let prefix =
            match flow with Some f -> flow_join prefix f | None -> prefix
          in
          (i + 1, prefix))
        (0, Extended.Nil) items
    in
    ()
  end;
  (* The embedded main certificate. *)
  (match (l.main, c.main_cert) with
  | None, None -> ()
  | None, Some _ -> add "main" "presence" "certificate embeds a main proof but the unit has no main program"
  | Some _, None -> add "main" "presence" "unit has a main program but the certificate embeds no proof"
  | Some _, Some cert -> (
    if not (String.equal (Spec.to_text cert.Cert.lattice) (Spec.to_text lat)) then
      add "main" "lattice" "embedded certificate uses a different lattice";
    List.iter
      (fun (v, cls) ->
        match List.assoc_opt v c.binds with
        | Some b when String.equal b cls -> ()
        | Some b ->
          add "main" "binding"
            (Printf.sprintf "embedded certificate binds %s = %s but the unit binds %s"
               v cls b)
        | None ->
          add "main" "binding"
            (Printf.sprintf "embedded certificate binds %s, unknown to the unit" v))
      cert.Cert.binds;
    match main_program ~binds:c.binds l with
    | None -> ()
    | Some mp -> (
      match Checker.check cert mp with
      | Ok () -> ()
      | Error fs ->
        List.iter (fun (f : failure) -> add ("main/" ^ f.path) f.rule f.reason) fs)));
  (* Component certificates: each must parse, anchor to a summary by
     digest, and fully re-check against that module's import-closed
     body. *)
  List.iteri
    (fun i text ->
      let path = Printf.sprintf "component %d" i in
      match Cert.parse text with
      | Error e ->
        add path "parse" (Fmt.str "%a" Cert.pp_parse_error e)
      | Ok cert -> (
        let d = Digest.to_hex (Digest.string text) in
        let owner =
          List.find_opt
            (fun ((_ : Ast.module_unit), (s : summary)) ->
              match s.cert_digest with Some cd -> String.equal cd d | None -> false)
            paired
        in
        match owner with
        | None ->
          add path "anchor" "no summary records this component certificate's digest"
        | Some (m, s) -> (
          match Checker.check cert (closed_program m) with
          | Ok () -> ()
          | Error fs ->
            List.iter
              (fun (f : failure) ->
                add
                  (Printf.sprintf "component %s/%s" s.m_name f.path)
                  f.rule f.reason)
              fs)))
    components;
  match List.rev !failures with [] -> Ok () | fs -> Error fs
