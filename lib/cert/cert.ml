(* Canonical serialization of flow-proof derivations, with a strict
   parser. See cert.mli for the format contract. *)

module Lattice = Ifc_lattice.Lattice
module Spec = Ifc_lattice.Spec
module Builtin = Ifc_lattice.Builtin
module Ast = Ifc_lang.Ast
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Assertion = Ifc_logic.Assertion
module Cexpr = Ifc_logic.Cexpr
module Proof = Ifc_logic.Proof

type kind =
  | K_assign
  | K_wait
  | K_signal
  | K_send
  | K_recv
  | K_skip
  | K_alternation
  | K_iteration
  | K_composition
  | K_concurrency
  | K_consequence

type node = {
  kind : kind;
  pre : string Assertion.t;
  post : string Assertion.t;
  children : node list;
}

type t = {
  program_digest : string;
  lattice : string Lattice.t;
  binds : (string * string) list;
  root : node;
}

type parse_error = { line : int; reason : string }

let version = 1

let pp_parse_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.reason

let rule_name = function
  | K_assign -> "assign"
  | K_wait -> "wait"
  | K_signal -> "signal"
  | K_send -> "send"
  | K_recv -> "recv"
  | K_skip -> "skip"
  | K_alternation -> "alternation"
  | K_iteration -> "iteration"
  | K_composition -> "composition"
  | K_concurrency -> "concurrency"
  | K_consequence -> "consequence"

let kind_of_name = function
  | "assign" -> Some K_assign
  | "wait" -> Some K_wait
  | "signal" -> Some K_signal
  | "send" -> Some K_send
  | "recv" -> Some K_recv
  | "skip" -> Some K_skip
  | "alternation" -> Some K_alternation
  | "iteration" -> Some K_iteration
  | "composition" -> Some K_composition
  | "concurrency" -> Some K_concurrency
  | "consequence" -> Some K_consequence
  | _ -> None

let program_digest p =
  Digest.to_hex (Digest.string (Pretty.program_to_string p))

let rec count_nodes n = 1 + List.fold_left (fun a c -> a + count_nodes c) 0 n.children

let node_count c = count_nodes c.root

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_sym = function
  | Cexpr.S_cls v -> "cls(" ^ v ^ ")"
  | Cexpr.S_local -> "local"
  | Cexpr.S_global -> "global"

(* Canonical: the normal form's sorted symbol atoms, then the constant
   (omitted when it is the bottom and at least one atom remains). *)
let render_cexpr (lat : string Lattice.t) e =
  let n = Cexpr.normalize lat e in
  let atoms = List.map render_sym n.Cexpr.atoms in
  let const = "const(" ^ lat.Lattice.to_string n.Cexpr.const ^ ")" in
  let parts =
    if atoms = [] then [ const ]
    else if lat.Lattice.equal n.Cexpr.const lat.Lattice.bottom then atoms
    else atoms @ [ const ]
  in
  String.concat " + " parts

let render_assertion lat (a : string Assertion.t) =
  let atoms =
    List.map
      (fun { Assertion.lhs; rhs } ->
        render_cexpr lat lhs ^ " <= " ^ render_cexpr lat rhs)
      a
    |> List.sort_uniq String.compare
  in
  "{" ^ String.concat "; " atoms ^ "}"

let spec_lines lat =
  String.split_on_char '\n' (Builtin.to_text lat)
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

let line buf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    fmt

let write_header buf ~version ~label ~digest lattice binds =
  line buf "ifc-cert %d" version;
  line buf "%s: %s" label digest;
  List.iter (line buf "lattice: %s") (spec_lines lattice);
  List.iter (fun (v, cls) -> line buf "bind: %s = %s" v cls) binds

let to_string (c : t) =
  let buf = Buffer.create 1024 in
  let line fmt = line buf fmt in
  write_header buf ~version ~label:"program" ~digest:c.program_digest c.lattice c.binds;
  line "nodes: %d" (node_count c);
  let rec emit path n =
    line "node %s: %s" path (rule_name n.kind);
    line "  pre: %s" (render_assertion c.lattice n.pre);
    line "  post: %s" (render_assertion c.lattice n.post);
    List.iteri
      (fun i child -> emit (path ^ "." ^ string_of_int i) child)
      n.children
  in
  emit "0" c.root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Emission from a checked derivation *)

let kind_of_rule = function
  | Proof.Axiom_assign -> K_assign
  | Proof.Axiom_wait -> K_wait
  | Proof.Axiom_signal -> K_signal
  | Proof.Axiom_send -> K_send
  | Proof.Axiom_recv -> K_recv
  | Proof.Axiom_skip -> K_skip
  | Proof.Alternation _ -> K_alternation
  | Proof.Iteration _ -> K_iteration
  | Proof.Composition _ -> K_composition
  | Proof.Concurrency _ -> K_concurrency
  | Proof.Consequence _ -> K_consequence

let of_proof ~binding ~program proof =
  let lat = Binding.lattice binding in
  let vars = Ifc_support.Sset.elements (Vars.all_vars program.Ast.body) in
  let binds =
    List.map (fun v -> (v, lat.Lattice.to_string (Binding.sbind binding v))) vars
  in
  let rec conv (p : string Proof.t) =
    {
      kind = kind_of_rule p.Proof.rule;
      pre = p.Proof.pre;
      post = p.Proof.post;
      children = List.map conv (Proof.children p);
    }
  in
  { program_digest = program_digest program; lattice = lat; binds; root = conv proof }

(* ------------------------------------------------------------------ *)
(* Strict parsing *)

exception Fail of parse_error

let fail line reason = raise (Fail { line; reason })

let chop_prefix ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

(* Split on a multi-character separator (atoms contain no separator
   substrings, so this is unambiguous). The separator is matched in place;
   only the pieces are allocated. *)
let split_str sep s =
  let m = String.length sep in
  let n = String.length s in
  let rec matches i k = k = m || (s.[i + k] = sep.[k] && matches i (k + 1)) in
  let rec go start i acc =
    if i + m > n then List.rev (String.sub s start (n - start) :: acc)
    else if matches i 0 then go (i + m) (i + m) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

let valid_digest d =
  String.length d = 32
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) d

type cursor = { lines : string array; mutable pos : int }

let peek c = if c.pos < Array.length c.lines then Some c.lines.(c.pos) else None

let finish c =
  match peek c with
  | Some l -> fail (c.pos + 1) (Printf.sprintf "trailing data after certificate: %S" l)
  | None -> ()

let next c what =
  match peek c with
  | Some l ->
    c.pos <- c.pos + 1;
    (c.pos, l)
  | None -> fail (c.pos + 1) ("unexpected end of certificate: expected " ^ what)

let element (lat : string Lattice.t) ln cls =
  match lat.Lattice.of_string cls with
  | Ok c -> c
  | Error _ -> fail ln (Printf.sprintf "unknown class %S" cls)

let read_header text ~version ~label ~noun =
  let c =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> { lines = Array.of_list (List.rev rest); pos = 0 }
    | _ -> fail 0 "certificate must end with a newline"
  in
  let ln, l = next c "version header" in
  (match chop_prefix ~prefix:"ifc-cert " l with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n = version -> ()
    | Some n -> fail ln (Printf.sprintf "unsupported %s version %d" noun n)
    | None -> fail ln "malformed version header")
  | None -> fail ln (Printf.sprintf "expected version header \"ifc-cert %d\"" version));
  let ln, l = next c (label ^ " digest") in
  let digest =
    match chop_prefix ~prefix:(label ^ ": ") l with
    | Some d -> d
    | None -> fail ln (Printf.sprintf "expected \"%s: <md5-hex>\"" label)
  in
  if not (valid_digest digest) then
    fail ln
      (Printf.sprintf "malformed %s digest (expected 32 lowercase hex digits)" label);
  let spec_first_line = c.pos + 1 in
  let spec = ref [] in
  let rec collect_spec () =
    match peek c with
    | Some l when String.starts_with ~prefix:"lattice: " l ->
      c.pos <- c.pos + 1;
      spec := Option.get (chop_prefix ~prefix:"lattice: " l) :: !spec;
      collect_spec ()
    | _ -> ()
  in
  collect_spec ();
  if !spec = [] then fail (c.pos + 1) "expected at least one \"lattice: ...\" line";
  let lat =
    match Spec.parse (String.concat "\n" (List.rev !spec)) with
    | Ok lat -> lat
    | Error msg -> fail spec_first_line ("invalid lattice spec: " ^ msg)
  in
  (* Bindings, sorted strictly by variable name. *)
  let binds = ref [] in
  let rec collect_binds () =
    match peek c with
    | Some l when String.starts_with ~prefix:"bind: " l ->
      c.pos <- c.pos + 1;
      let ln = c.pos in
      let payload = Option.get (chop_prefix ~prefix:"bind: " l) in
      (match split_str " = " payload with
      | [ name; cls ] when name <> "" ->
        (match !binds with
        | (prev, _) :: _ when String.compare prev name >= 0 ->
          fail ln "bindings must be sorted by variable name"
        | _ -> ());
        binds := (name, lat.Lattice.to_string (element lat ln cls)) :: !binds
      | _ -> fail ln "expected \"bind: <variable> = <class>\"");
      collect_binds ()
    | _ -> ()
  in
  collect_binds ();
  (c, digest, lat, List.rev !binds)

let arity_ok kind n =
  match kind with
  | K_assign | K_wait | K_signal | K_send | K_recv | K_skip -> n = 0
  | K_iteration | K_consequence -> n = 1
  | K_alternation -> n = 2
  | K_composition | K_concurrency -> n >= 1

let arity_text = function
  | K_assign | K_wait | K_signal | K_send | K_recv | K_skip -> "no sub-derivations"
  | K_iteration | K_consequence -> "exactly 1 sub-derivation"
  | K_alternation -> "exactly 2 sub-derivations"
  | K_composition | K_concurrency -> "at least 1 sub-derivation"

let parse_exn text =
  let c, digest, lat, binds =
    read_header text ~version ~label:"program" ~noun:"certificate"
  in
  let next = next c and peek () = peek c and element = element lat in
  (* Node count. *)
  let ln, l = next "node count" in
  let declared =
    match chop_prefix ~prefix:"nodes: " l with
    | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> n
      | _ -> fail ln "malformed node count")
    | None -> fail ln "expected \"nodes: <count>\""
  in
  (* Class expressions and assertions. *)
  let parse_part ln s =
    if String.equal s "local" then Cexpr.Local
    else if String.equal s "global" then Cexpr.Global
    else
      let inner prefix =
        match chop_prefix ~prefix s with
        | Some rest
          when String.length rest > 0 && rest.[String.length rest - 1] = ')' ->
          let v = String.sub rest 0 (String.length rest - 1) in
          if
            v <> ""
            && not (String.exists (fun c -> c = ' ' || c = '(' || c = ')') v)
          then Some v
          else None
        | _ -> None
      in
      match inner "cls(" with
      | Some v -> Cexpr.Cls v
      | None -> (
        match inner "const(" with
        | Some c -> Cexpr.Const (element ln c)
        | None ->
          fail ln (Printf.sprintf "malformed class expression part %S" s))
  in
  let parse_cexpr ln s =
    match split_str " + " s with
    | [] -> fail ln "empty class expression"
    | first :: rest ->
      List.fold_left
        (fun acc p -> Cexpr.Join (acc, parse_part ln p))
        (parse_part ln first) rest
  in
  let parse_assertion_text ln s =
    let n = String.length s in
    if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then
      fail ln "assertion must be of the form {...}";
    let inner = String.sub s 1 (n - 2) in
    if String.equal inner "" then []
    else
      split_str "; " inner
      |> List.map (fun atom ->
             match split_str " <= " atom with
             | [ lhs; rhs ] ->
               Assertion.atom (parse_cexpr ln lhs) (parse_cexpr ln rhs)
             | _ ->
               fail ln
                 (Printf.sprintf "malformed atom %S (expected \"e1 <= e2\")"
                    atom))
  in
  (* A derivation repeats a handful of assertions at most of its nodes
     (adjacent pre/post pairs, consequence wrappers, the invariant), so
     each distinct text is parsed once and its occurrences share one
     value. Only successful parses are kept: a bad text fails at its
     first occurrence, with that line. *)
  let parsed = Hashtbl.create 32 in
  let parse_assertion ln s =
    match Hashtbl.find_opt parsed s with
    | Some a -> a
    | None ->
      let a = parse_assertion_text ln s in
      Hashtbl.add parsed s a;
      a
  in
  (* Node tree, preorder, paths checked against position. *)
  let rec parse_node path =
    let ln, l = next ("node " ^ path) in
    let head = "node " ^ path ^ ": " in
    let rule =
      match chop_prefix ~prefix:head l with
      | Some r -> r
      | None -> fail ln (Printf.sprintf "expected \"node %s: <rule>\"" path)
    in
    let kind =
      match kind_of_name rule with
      | Some k -> k
      | None -> fail ln (Printf.sprintf "unknown rule %S" rule)
    in
    let ln2, l2 = next "pre assertion" in
    let pre =
      match chop_prefix ~prefix:"  pre: " l2 with
      | Some a -> parse_assertion ln2 a
      | None -> fail ln2 "expected \"  pre: {...}\""
    in
    let ln3, l3 = next "post assertion" in
    let post =
      match chop_prefix ~prefix:"  post: " l3 with
      | Some a -> parse_assertion ln3 a
      | None -> fail ln3 "expected \"  post: {...}\""
    in
    let children = ref [] in
    let continue = ref true in
    while !continue do
      let child_path = path ^ "." ^ string_of_int (List.length !children) in
      match peek () with
      | Some l when String.starts_with ~prefix:("node " ^ child_path ^ ": ") l ->
        children := parse_node child_path :: !children
      | _ -> continue := false
    done;
    let children = List.rev !children in
    if not (arity_ok kind (List.length children)) then
      fail ln
        (Printf.sprintf "rule %s requires %s, found %d" rule (arity_text kind)
           (List.length children));
    { kind; pre; post; children }
  in
  let root = parse_node "0" in
  finish c;
  let c = { program_digest = digest; lattice = lat; binds; root } in
  if node_count c <> declared then
    fail ln
      (Printf.sprintf "node count mismatch: header declares %d, tree has %d"
         declared (node_count c));
  c

let parse text =
  try Ok (parse_exn text) with
  | Fail e -> Error e
  | exn -> Error { line = 0; reason = "internal error: " ^ Printexc.to_string exn }
