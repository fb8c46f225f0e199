(* Entailment between flow assertions. *)

module Lattice = Ifc_lattice.Lattice

(* --------------------------------------------------------------- *)
(* Syntactic checker *)

(* Derive [atom <= goal] from hypotheses [hyps], where [atom] is a single
   symbol or constant and [goal] a normalized class expression. Chaining
   through hypotheses is bounded by a visited set on symbols. Each
   hypothesis comes with the symbols of its left side, computed once per
   [check] call, since every symbol lookup scans them. *)
let rec derive_atom (l : 'a Lattice.t) hyps visited atom (goal : 'a Cexpr.normal) =
  match atom with
  | `Const c ->
    (* A constant is only provably below the goal's constant part: goal
       symbols are arbitrary in some valuation, and hypotheses bound
       symbols, not constants. Sound, and complete for the assertions the
       proof rules produce. *)
    l.Lattice.leq c goal.Cexpr.const
  | `Sym s ->
    List.exists (fun s' -> Cexpr.compare_sym s s' = 0) goal.Cexpr.atoms
    || (not (List.mem s visited))
       && List.exists
            (fun (lhs_syms, rhs) ->
              (* lhs <= rhs with s among lhs's symbols gives s <= rhs. *)
              List.exists (fun s' -> Cexpr.compare_sym s s' = 0) lhs_syms
              && derive_expr l hyps (s :: visited) rhs goal)
            hyps

(* Derive [e <= goal] by deriving every join component. *)
and derive_expr l hyps visited e goal =
  let n = Cexpr.normalize l e in
  derive_atom l hyps visited (`Const n.Cexpr.const) goal
  && List.for_all (fun s -> derive_atom l hyps visited (`Sym s) goal) n.Cexpr.atoms

let check (l : 'a Lattice.t) hyps goals =
  let hyps =
    List.map
      (fun (h : 'a Assertion.atom) -> (Cexpr.syms h.Assertion.lhs, h.Assertion.rhs))
      hyps
  in
  List.for_all
    (fun (g : 'a Assertion.atom) ->
      let goal_n = Cexpr.normalize l g.Assertion.rhs in
      derive_expr l hyps [] g.Assertion.lhs goal_n)
    goals

(* --------------------------------------------------------------- *)
(* Complete decider by valuation enumeration *)

let decide ?(max_valuations = 200_000) (l : 'a Lattice.t) hyps goals =
  let syms =
    List.sort_uniq Cexpr.compare_sym (Assertion.syms hyps @ Assertion.syms goals)
  in
  let n_elems = List.length l.Lattice.elements in
  let n_syms = List.length syms in
  (* valuations = n_elems ^ n_syms; overflow-safe check. *)
  let rec count acc k =
    if k = 0 then Some acc
    else if acc > max_valuations then None
    else count (acc * n_elems) (k - 1)
  in
  match count 1 n_syms with
  | None ->
    Error
      (Printf.sprintf "entailment: %d^%d valuations exceed the limit %d" n_elems n_syms
         max_valuations)
  | Some _ ->
    let arr = Array.of_list l.Lattice.elements in
    let sym_arr = Array.of_list syms in
    let assignment = Array.make n_syms 0 in
    let env s =
      let rec find i =
        if i >= n_syms then l.Lattice.bottom
        else if Cexpr.compare_sym sym_arr.(i) s = 0 then arr.(assignment.(i))
        else find (i + 1)
      in
      find 0
    in
    let rec enumerate i =
      if i = n_syms then
        (not (Assertion.holds l env hyps)) || Assertion.holds l env goals
      else begin
        let rec loop v =
          if v >= Array.length arr then true
          else begin
            assignment.(i) <- v;
            enumerate (i + 1) && loop (v + 1)
          end
        in
        loop 0
      end
    in
    Ok (enumerate 0)
