(* Flow assertions: conjunctions of class-expression inequalities. *)

module Lattice = Ifc_lattice.Lattice

type 'a atom = { lhs : 'a Cexpr.t; rhs : 'a Cexpr.t }

type 'a t = 'a atom list

let atom lhs rhs = { lhs; rhs }

let subst f p = List.map (fun a -> { lhs = Cexpr.subst f a.lhs; rhs = Cexpr.subst f a.rhs }) p

let atom_key (l : 'a Lattice.t) a =
  let n e =
    let { Cexpr.const; atoms } = Cexpr.normalize l e in
    (l.Lattice.to_string const, atoms)
  in
  (n a.lhs, n a.rhs)

let equal (l : 'a Lattice.t) p q =
  let norm p = List.sort_uniq compare (List.map (atom_key l) p) in
  p == q || norm p = norm q

let distinct ps =
  let reps = Array.make (List.length ps) [] and count = ref 0 in
  let rec by_pointer p k =
    if k = !count then by_value p 0 else if reps.(k) == p then k else by_pointer p (k + 1)
  and by_value p k =
    if k = !count then begin
      reps.(k) <- p;
      incr count;
      k
    end
    else if reps.(k) = p then k
    else by_value p (k + 1)
  in
  let slots = Array.of_list (List.map (fun p -> by_pointer p 0) ps) in
  (Array.sub reps 0 !count, slots)

let holds (l : 'a Lattice.t) env p =
  List.for_all (fun a -> l.Lattice.leq (Cexpr.eval l env a.lhs) (Cexpr.eval l env a.rhs)) p

let syms p =
  let all = List.concat_map (fun a -> Cexpr.syms a.lhs @ Cexpr.syms a.rhs) p in
  List.sort_uniq Cexpr.compare_sym all

let policy binding vars =
  List.map
    (fun v -> atom (Cexpr.Cls v) (Cexpr.Const (Ifc_core.Binding.sbind binding v)))
    (List.sort_uniq String.compare vars)

type 'a triple = { v : 'a t; l : 'a Cexpr.t; g : 'a Cexpr.t }

let of_triple { v; l; g } =
  v @ [ atom Cexpr.Local l; atom Cexpr.Global g ]

let mentions_cert e =
  List.exists
    (function Cexpr.S_local | Cexpr.S_global -> true | Cexpr.S_cls _ -> false)
    (Cexpr.syms e)

let triple_of (lat : 'a Lattice.t) p =
  let is_exactly sym e =
    match Cexpr.normalize lat e with
    | { Cexpr.const; atoms = [ s ] } when Cexpr.compare_sym s sym = 0 ->
      lat.Lattice.equal const lat.Lattice.bottom
    | _ -> false
  in
  let classify (v, ls, gs, ok) a =
    if not ok then (v, ls, gs, false)
    else if is_exactly Cexpr.S_local a.lhs then
      if mentions_cert a.rhs then (v, ls, gs, false) else (v, a.rhs :: ls, gs, ok)
    else if is_exactly Cexpr.S_global a.lhs then
      if mentions_cert a.rhs then (v, ls, gs, false) else (v, ls, a.rhs :: gs, ok)
    else if mentions_cert a.lhs || mentions_cert a.rhs then (v, ls, gs, false)
    else (a :: v, ls, gs, ok)
  in
  let v, ls, gs, ok = List.fold_left classify ([], [], [], true) p in
  match (ok, ls, gs) with
  | true, _ :: _, _ :: _ ->
    (* Multiple bounds on the same certification variable conjoin to the
       bound evaluated as a meet; we only accept the single-bound form the
       rules produce, but tolerate duplicates of an identical bound. *)
    let dedup bounds =
      match Ifc_support.Listx.dedup (fun a b ->
                if Cexpr.equal lat a b then 0 else 1) bounds
      with
      | [ b ] -> Some b
      | _ -> None
    in
    Option.bind (dedup ls) (fun l ->
        Option.map (fun g -> { v = List.rev v; l; g }) (dedup gs))
  | _, _, _ -> None

let pp (l : 'a Lattice.t) ppf p =
  let pp_atom ppf a = Fmt.pf ppf "%a <= %a" (Cexpr.pp l) a.lhs (Cexpr.pp l) a.rhs in
  match p with
  | [] -> Fmt.string ppf "true"
  | _ -> Fmt.pf ppf "@[<hv>%a@]" (Fmt.list ~sep:(Fmt.any ",@ ") pp_atom) p
