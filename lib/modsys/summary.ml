(* Module summaries: Figure 2's fold over the symbolic algebra, whose
   classes carry an import part. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Key = Ifc_lang.Key
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Linked = Ifc_cert.Linked
module Store = Ifc_store.Store
module Sset = Ifc_support.Sset

(* Join-form symbolic class: base ⊕ ⊕_{y ∈ over} cls(y). *)
type sym = { base : string; over : Sset.t }

(* Meet-form symbolic mod: floor ⊗ ⊗_{y ∈ under} cls(y). *)
type symod = { floor : string; under : Sset.t }

(* Decompose a symbolic check [flow <= mod] into atoms. Concrete/concrete
   atoms are decided now; anything touching an import becomes a residual
   constraint, prepended to [constraints]. Trivial atoms — a bottom on
   the left, a top on the right, cls(y) <= cls(y) — are dropped, which
   is what keeps the residue bounded by the interface, not the body. The
   outcome is false only when a concrete/concrete atom fails, so a
   body's cert is exactly its [locals_ok]. *)
let record l constraints lhs rhs =
  match lhs with
  | Extended.Nil -> true
  | Extended.El { base; over } ->
    let lhs_atoms =
      (if l.Lattice.equal base l.Lattice.bottom then [] else [ `Const base ])
      @ List.map (fun y -> `Cls y) (Sset.elements over)
    in
    let rhs_atoms =
      (if l.Lattice.equal rhs.floor l.Lattice.top then [] else [ `Const rhs.floor ])
      @ List.map (fun z -> `Cls z) (Sset.elements rhs.under)
    in
    let ok = ref true in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            match (a, b) with
            | `Const k1, `Const k2 -> if not (l.Lattice.leq k1 k2) then ok := false
            | `Cls y, `Const k ->
              constraints := Linked.Upper (y, l.Lattice.to_string k) :: !constraints
            | `Const k, `Cls z ->
              constraints := Linked.Lower (l.Lattice.to_string k, z) :: !constraints
            | `Cls y, `Cls z ->
              if not (String.equal y z) then
                constraints := Linked.Rel (y, z) :: !constraints)
          rhs_atoms)
      lhs_atoms;
    !ok

(* The symbolic algebra lifts the binding's concrete one: an import is
   its own unknown class, any other name its binding's class. *)
let algebra bind imports constraints =
  let c = Cfm.algebra bind in
  let l = Binding.lattice bind in
  let const k = { base = k; over = Sset.empty } in
  {
    Cfm.bottom = const c.bottom;
    top = { floor = c.top; under = Sset.empty };
    src =
      (fun x ->
        if Sset.mem x imports then { base = c.bottom; over = Sset.singleton x }
        else const (c.src x));
    dst =
      (fun x ->
        if Sset.mem x imports then { floor = c.top; under = Sset.singleton x }
        else { floor = c.dst x; under = Sset.empty });
    named = (fun cls -> const (c.named cls));
    join = (fun a b -> { base = c.join a.base b.base; over = Sset.union a.over b.over });
    meet =
      (fun a b -> { floor = c.meet a.floor b.floor; under = Sset.union a.under b.under });
    check = (fun _ _ lhs rhs -> record l constraints lhs rhs);
  }

(* The interface facts Figure 2 does not need: the channels a body sends
   on and receives from, and the semaphores it waits on and signals. *)
let rec obligations ((sends, recvs, waits, signals) as acc) (s : Ast.stmt) =
  match s.node with
  | Ast.Send (c, _) -> (Sset.add c sends, recvs, waits, signals)
  | Ast.Recv (c, _) -> (sends, Sset.add c recvs, waits, signals)
  | Ast.Wait sem -> (sends, recvs, Sset.add sem waits, signals)
  | Ast.Signal sem -> (sends, recvs, waits, Sset.add sem signals)
  | _ -> List.fold_left obligations acc (Ast.children s)

let summarize_body ~lattice ?default ~body_digest (m : Ast.module_unit) =
  let resolve what cls =
    match lattice.Lattice.of_string cls with
    | Ok c -> Ok c
    | Error _ -> Error (Printf.sprintf "unknown class %s in %s" cls what)
  in
  let rec resolve_entries what = function
    | [] -> Ok []
    | (e : Ast.iface_entry) :: rest ->
      Result.bind (resolve what e.iv_class) (fun c ->
          Result.map (fun tail -> (e.iv_name, c) :: tail) (resolve_entries what rest))
  in
  Result.bind
    (Result.map_error
       (fun _ -> "unresolvable class annotation in module declarations")
       (Binding.of_program lattice ?default (Ast.module_program m)))
    (fun bind ->
      Result.bind (resolve_entries "provides" m.iface.provides) (fun provides ->
          Result.bind (resolve_entries "requires" m.iface.requires) (fun requires ->
              let constraints = ref [] in
              let imports = Sset.of_list (List.map fst requires) in
              (* self_check is pinned to false: the default reading, and
                 the one Link and the whole-program comparison use. *)
              let body =
                Cfm.fold (algebra bind imports constraints) ~self_check:false
                  m.m_body
              in
              let sends, recvs, waits, signals =
                obligations (Sset.empty, Sset.empty, Sset.empty, Sset.empty) m.m_body
              in
              let to_s = lattice.Lattice.to_string in
              let exports =
                List.map (fun (x, _) -> (x, to_s (Binding.sbind bind x))) provides
              in
              let exports_ok =
                List.for_all
                  (fun (x, bound) -> lattice.Lattice.leq (Binding.sbind bind x) bound)
                  provides
              in
              Ok
                {
                  Linked.m_name = m.iface.m_name;
                  body_digest;
                  cert_digest = None;
                  provides =
                    List.map (fun (x, c) -> (x, to_s c)) provides;
                  requires =
                    List.map (fun (y, c) -> (y, to_s c)) requires;
                  exports;
                  smod =
                    {
                      Linked.floor = to_s body.mod_.floor;
                      under = Sset.elements body.mod_.under;
                    };
                  sflow =
                    (match body.flow with
                    | Extended.Nil -> Linked.F_nil
                    | Extended.El { base; over } ->
                      Linked.F_sym { base = to_s base; over = Sset.elements over });
                  constraints = !constraints;
                  sends = Sset.elements sends;
                  recvs = Sset.elements recvs;
                  waits = Sset.elements waits;
                  signals = Sset.elements signals;
                  locals_ok = body.cert;
                  exports_ok;
                })))

let summarize ~lattice ?default m =
  summarize_body ~lattice ?default ~body_digest:(Key.module_digest m) m

(* ------------------------------------------------------------------ *)
(* Store persistence *)

(* The module's key with the classification context. Keep these bytes:
   summary stores already written are read under them. *)
let key ~lattice ?default body_digest =
  let default_s =
    lattice.Lattice.to_string (Option.value default ~default:lattice.Lattice.bottom)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            "ifc-modsys 1";
            body_digest;
            lattice.Lattice.name;
            String.concat ","
              (List.map lattice.Lattice.to_string lattice.Lattice.elements);
            default_s;
          ]))

(* The store answers only a payload that parses back to a summary; any
   other is a miss, and the fresh summary overwrites it. The module is
   folded once, for both the store key and a fresh summary's body digest. *)
let resolve ?store ~lattice ?default (m : Ast.module_unit) =
  let body_digest = Key.module_digest m in
  let fresh () =
    Result.map_error
      (Printf.sprintf "module %s: %s" m.iface.m_name)
      (summarize_body ~lattice ?default ~body_digest m)
  in
  match store with
  | None -> Result.map (fun s -> (s, false)) (fresh ())
  | Some st -> (
    let digest = key ~lattice ?default body_digest in
    match
      Option.bind (Store.find_summary st ~digest) (fun payload ->
          Result.to_option (Linked.summary_of_line payload))
    with
    | Some s -> Ok (s, true)
    | None ->
      Result.map
        (fun s ->
          Store.add_summary st ~digest (Linked.summary_to_line s);
          (s, false))
        (fresh ()))

(* ------------------------------------------------------------------ *)
(* Resolution under a concrete class assignment *)

let resolve_smod ~lattice ~cls (m : Linked.smod) =
  let parts =
    (match lattice.Lattice.of_string m.Linked.floor with
    | Ok v -> Some v
    | Error _ -> None)
    :: List.map
         (fun y ->
           Option.bind (cls y) (fun s ->
               match lattice.Lattice.of_string s with Ok v -> Some v | Error _ -> None))
         m.Linked.under
  in
  if List.exists Option.is_none parts then None
  else Some (Lattice.meets lattice (List.filter_map Fun.id parts))

let resolve_sflow ~lattice ~cls = function
  | Linked.F_nil -> Some Extended.Nil
  | Linked.F_sym { base; over } ->
    let parts =
      (match lattice.Lattice.of_string base with Ok v -> Some v | Error _ -> None)
      :: List.map
           (fun y ->
             Option.bind (cls y) (fun s ->
                 match lattice.Lattice.of_string s with
                 | Ok v -> Some v
                 | Error _ -> None))
           over
    in
    if List.exists Option.is_none parts then None
    else Some (Extended.El (Lattice.joins lattice (List.filter_map Fun.id parts)))

let eval_constr ~lattice ~cls constr =
  let resolve s =
    match lattice.Lattice.of_string s with Ok v -> Some v | Error _ -> None
  in
  let of_name y = Option.bind (cls y) resolve in
  match constr with
  | Linked.Upper (y, k) -> (
    match (of_name y, resolve k) with
    | Some cy, Some kv -> Some (lattice.Lattice.leq cy kv)
    | _ -> None)
  | Linked.Lower (k, y) -> (
    match (of_name y, resolve k) with
    | Some cy, Some kv -> Some (lattice.Lattice.leq kv cy)
    | _ -> None)
  | Linked.Rel (y, z) -> (
    match (of_name y, of_name z) with
    | Some cy, Some cz -> Some (lattice.Lattice.leq cy cz)
    | _ -> None)
