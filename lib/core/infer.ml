(* Symbolic constraint extraction and least-binding inference. *)

module Lattice = Ifc_lattice.Lattice
module Smap = Ifc_support.Smap
module Sset = Ifc_support.Sset
module Ast = Ifc_lang.Ast

type atom =
  | Const_low
  | Const_named of string  (** A class named in the program (declassify). *)
  | Class of string

type constr = {
  span : Ifc_lang.Loc.span;
  rule : Cfm.rule;
  lhs : atom list;
  rhs : string;
}

let rec expr_atoms = function
  | Ast.Int _ | Ast.Bool _ -> [ Const_low ]
  | Ast.Var x -> [ Class x ]
  | Ast.Index (a, i) -> Class a :: expr_atoms i
  | Ast.Unop (_, e) -> expr_atoms e
  | Ast.Binop (_, a, b) -> expr_atoms a @ expr_atoms b

let atom_compare a b =
  match (a, b) with
  | Const_low, Const_low -> 0
  | Const_low, _ -> -1
  | _, Const_low -> 1
  | Const_named x, Const_named y -> String.compare x y
  | Const_named _, Class _ -> -1
  | Class _, Const_named _ -> 1
  | Class x, Class y -> String.compare x y

let norm_atoms atoms =
  let atoms = List.sort_uniq atom_compare atoms in
  match
    List.filter (function Class _ | Const_named _ -> true | Const_low -> false) atoms
  with
  | [] -> [ Const_low ]
  | keep -> keep

(* Symbolic flow: [None] is Figure 2's nil. Merges normalise so atom
   lists stay bounded by the variable count, not the program length. *)
let flow_merge f1 f2 =
  match (f1, f2) with
  | None, f | f, None -> f
  | Some a, Some b -> Some (norm_atoms (a @ b))

let constraints ?(self_check = false) stmt =
  let out = ref [] in
  let emit span rule lhs mod_set =
    let lhs = norm_atoms lhs in
    (* A constraint bounded by an empty mod (mod = top) always holds. *)
    Sset.iter (fun v -> out := { span; rule; lhs; rhs = v } :: !out) mod_set
  in
  (* Returns (modified-variable set, symbolic flow). *)
  let rec go (s : Ast.stmt) =
    match s.node with
    | Ast.Skip -> (Sset.empty, None)
    | Ast.Assign (x, e) ->
      out := { span = s.span; rule = Cfm.Assign_direct; lhs = norm_atoms (expr_atoms e); rhs = x } :: !out;
      (Sset.singleton x, None)
    | Ast.Declassify (x, _, cls) ->
      out :=
        { span = s.span; rule = Cfm.Declassify_direct; lhs = [ Const_named cls ]; rhs = x }
        :: !out;
      (Sset.singleton x, None)
    | Ast.Store (a, i, e) ->
      out :=
        { span = s.span; rule = Cfm.Store_direct;
          lhs = norm_atoms (expr_atoms i @ expr_atoms e); rhs = a }
        :: !out;
      (Sset.singleton a, None)
    | Ast.Wait sem -> (Sset.singleton sem, Some [ Class sem ])
    | Ast.Signal sem -> (Sset.singleton sem, None)
    | Ast.Send (chan, e) ->
      out :=
        { span = s.span; rule = Cfm.Send_direct; lhs = norm_atoms (expr_atoms e);
          rhs = chan }
        :: !out;
      (Sset.singleton chan, None)
    | Ast.Recv (chan, x) ->
      out :=
        { span = s.span; rule = Cfm.Recv_direct; lhs = [ Class chan ]; rhs = x }
        :: !out;
      (Sset.add x (Sset.singleton chan), Some [ Class chan ])
    | Ast.If (cond, then_, else_) ->
      let m1, f1 = go then_ in
      let m2, f2 = go else_ in
      let mod_set = Sset.union m1 m2 in
      emit s.span Cfm.If_local (expr_atoms cond) mod_set;
      let flow =
        match flow_merge f1 f2 with
        | None -> None
        | Some atoms -> Some (atoms @ expr_atoms cond)
      in
      (mod_set, flow)
    | Ast.While (cond, body) ->
      let m1, f1 = go body in
      let flow_atoms = Option.value f1 ~default:[] @ expr_atoms cond in
      emit s.span Cfm.While_global flow_atoms m1;
      (m1, Some flow_atoms)
    | Ast.Seq stmts ->
      (* Prefix-join form, as in Cfm.combine: one constraint per
         component bounding the join of all earlier flows. Unlike
         Cfm.fold, a component's constraint is emitted before the next
         component is visited, and [solve] reports the first violated
         constraint in that order, so this walk stays separate. *)
      let _, _, mod_set, flow =
        List.fold_left
          (fun (i, prefix, mods, flow) s' ->
            let m, f = go s' in
            let to_check = if self_check then flow_merge prefix f else prefix in
            (match to_check with
            | None -> ()
            | Some atoms -> emit s'.Ast.span (Cfm.Seq_global i) atoms m);
            (* Normalise the running prefix so its atom list stays bounded
               by the variable count rather than the block length. *)
            let prefix' = Option.map norm_atoms (flow_merge prefix f) in
            (i + 1, prefix', Sset.union mods m, flow_merge flow f))
          (0, None, Sset.empty, None) stmts
      in
      (mod_set, flow)
    | Ast.Cobegin branches ->
      let results = List.map go branches in
      let mod_set = List.fold_left (fun acc (m, _) -> Sset.union acc m) Sset.empty results in
      let flow = List.fold_left (fun acc (_, f) -> flow_merge acc f) None results in
      (mod_set, flow)
  in
  let _ = go stmt in
  List.rev !out

let pp_atom ppf = function
  | Const_low -> Fmt.string ppf "low"
  | Const_named c -> Fmt.string ppf c
  | Class v -> Fmt.pf ppf "sbind(%s)" v

let pp_constr ppf c =
  Fmt.pf ppf "%a <= sbind(%s)" (Fmt.list ~sep:(Fmt.any " (+) ") pp_atom) c.lhs c.rhs

type 'a conflict = { constr : constr; actual : 'a; allowed : 'a }

let solve (l : 'a Lattice.t) ~fixed constrs =
  let fixed_map = Smap.of_list fixed in
  let value env = function
    | Const_low -> l.Lattice.bottom
    | Const_named c -> (
      match l.Lattice.of_string c with Ok x -> x | Error _ -> l.Lattice.top)
    | Class v -> Smap.find_or ~default:l.Lattice.bottom v env
  in
  let env =
    (* Free variables start at bottom; fixed ones at their given class. *)
    List.fold_left (fun env (v, c) -> Smap.add v c env) Smap.empty fixed
  in
  (* Kleene iteration: the left-hand sides only grow, so a violation of a
     fixed bound observed at any point is permanent and reported. *)
  let conflict = ref None in
  let step env =
    List.fold_left
      (fun (env, changed) c ->
        if Option.is_some !conflict then (env, changed)
        else
          let lhs_value = Lattice.joins l (List.map (value env) c.lhs) in
          let rhs_value = value env (Class c.rhs) in
          if l.Lattice.leq lhs_value rhs_value then (env, changed)
          else
            match Smap.find_opt c.rhs fixed_map with
            | Some allowed ->
              conflict := Some { constr = c; actual = lhs_value; allowed };
              (env, changed)
            | None -> (Smap.add c.rhs (l.Lattice.join rhs_value lhs_value) env, true))
      (env, false) constrs
  in
  let rec fixpoint env =
    let env, changed = step env in
    match !conflict with
    | Some c -> Error c
    | None -> if changed then fixpoint env else Ok env
  in
  fixpoint env

let infer ?self_check (l : 'a Lattice.t) ~fixed (p : Ast.program) =
  let constrs = constraints ?self_check p.body in
  Result.map
    (fun env -> Binding.make l (Smap.bindings env))
    (solve l ~fixed constrs)
