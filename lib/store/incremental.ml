(* Subtree-summary certification: a digest-keyed memo over Figure 2's
   [Cfm.combine]. One digest pass recognises unchanged subtrees; the
   combination rules run only on the spine. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Ast = Ifc_lang.Ast
module Pretty = Ifc_lang.Pretty

type ('c, 'm) triple = ('c, 'm) Cfm.summary = {
  mod_ : 'm;
  flow : 'c Extended.elt;
  cert : bool;
}

type summary = (string, string) triple

type stats = {
  computed : int;
  reused_memory : int;
  reused_disk : int;
}

type t = {
  alg : (string, string) Cfm.algebra;
  lattice : string Lattice.t;
  self_check : bool;
  ctx : string;
  memo : (string, summary) Hashtbl.t;
  store : Store.t option;
  mutable computed : int;
  mutable reused_memory : int;
  mutable reused_disk : int;
}

let hash parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* The context digest pins everything a summary depends on besides the
   subtree itself: the binding (listed variable classes and the default
   class of every other variable), the scheme, and the composition-rule
   reading. Two certifiers with equal contexts may share summaries; any
   difference changes every key. *)
let context_digest binding lattice self_check =
  hash
    [
      "ifc-incremental 2";
      Fmt.str "%a" Binding.pp binding;
      lattice.Lattice.to_string (Binding.default binding);
      lattice.Lattice.name;
      String.concat "," (List.map lattice.Lattice.to_string lattice.Lattice.elements);
      string_of_bool self_check;
    ]

let create ?store ?(self_check = false) binding =
  let lattice = Binding.lattice binding in
  {
    alg = Cfm.algebra binding;
    lattice;
    self_check;
    ctx = context_digest binding lattice self_check;
    memo = Hashtbl.create 256;
    store;
    computed = 0;
    reused_memory = 0;
    reused_disk = 0;
  }

(* ------------------------------------------------------------------ *)
(* Digesting and the memo *)

let node_digest t (node : Ast.node) child_digests =
  let atoms =
    match node with
    | Ast.Skip -> [ "skip" ]
    | Ast.Assign (x, e) -> [ "assign"; x; Pretty.expr_to_string e ]
    | Ast.Declassify (x, e, cls) ->
      [ "declassify"; x; Pretty.expr_to_string e; cls ]
    | Ast.Store (a, i, e) ->
      [ "store"; a; Pretty.expr_to_string i; Pretty.expr_to_string e ]
    | Ast.Wait sem -> [ "wait"; sem ]
    | Ast.Signal sem -> [ "signal"; sem ]
    | Ast.Send (chan, e) -> [ "send"; chan; Pretty.expr_to_string e ]
    | Ast.Recv (chan, x) -> [ "recv"; chan; x ]
    | Ast.If (cond, _, _) -> [ "if"; Pretty.expr_to_string cond ]
    | Ast.While (cond, _) -> [ "while"; Pretty.expr_to_string cond ]
    | Ast.Seq _ -> [ "seq" ]
    | Ast.Cobegin _ -> [ "cobegin" ]
  in
  hash ((t.ctx :: atoms) @ child_digests)

let to_stored (s : summary) =
  {
    Store.s_mod = s.mod_;
    s_flow =
      (match s.flow with Extended.Nil -> None | Extended.El f -> Some f);
    s_cert = s.cert;
  }

(* Stored class strings re-enter through the lattice's own parser; a
   string the scheme no longer recognises (edited spec, crossed store)
   is treated as a miss, not trusted. *)
let of_stored t (s : Store.summary) =
  let parse v =
    match t.lattice.Lattice.of_string v with Ok c -> Some c | Error _ -> None
  in
  match (parse s.Store.s_mod, s.Store.s_flow) with
  | None, _ -> None
  | Some mod_, None ->
    Some { mod_; flow = Extended.Nil; cert = s.Store.s_cert }
  | Some mod_, Some f -> (
    match parse f with
    | None -> None
    | Some f -> Some { mod_; flow = Extended.El f; cert = s.Store.s_cert })

let lookup t digest =
  match Hashtbl.find_opt t.memo digest with
  | Some s ->
    t.reused_memory <- t.reused_memory + 1;
    Some s
  | None -> (
    match t.store with
    | None -> None
    | Some store -> (
      match Store.find_summary store ~digest with
      | None -> None
      | Some stored -> (
        match of_stored t stored with
        | None -> None
        | Some s ->
          t.reused_disk <- t.reused_disk + 1;
          Hashtbl.replace t.memo digest s;
          Some s)))

let certify t stmt =
  let rec go (s : Ast.stmt) =
    let child_results = List.map go (Ast.children s) in
    let digest = node_digest t s.node (List.map fst child_results) in
    match lookup t digest with
    | Some summary -> (digest, summary)
    | None ->
      let summary =
        Cfm.combine t.alg ~self_check:t.self_check s (List.map snd child_results)
      in
      t.computed <- t.computed + 1;
      Hashtbl.replace t.memo digest summary;
      (match t.store with
      | Some store -> Store.add_summary store ~digest (to_stored summary)
      | None -> ());
      (digest, summary)
  in
  snd (go stmt)

let certify_program t (p : Ast.program) = (certify t p.Ast.body).cert

let digest t stmt =
  let rec go (s : Ast.stmt) = node_digest t s.node (List.map go (Ast.children s)) in
  go stmt

let stats t =
  {
    computed = t.computed;
    reused_memory = t.reused_memory;
    reused_disk = t.reused_disk;
  }

let reset_stats t =
  t.computed <- 0;
  t.reused_memory <- 0;
  t.reused_disk <- 0
