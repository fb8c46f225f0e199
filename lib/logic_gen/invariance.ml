(* Existence of completely invariant proofs via generate-then-check. *)

module Binding = Ifc_core.Binding
module Check = Ifc_logic.Check

let decide_at ~l ~g binding stmt =
  let lat = Binding.lattice binding in
  let proof = Generate.theorem1 ~l ~g binding stmt in
  Check.valid lat proof

let decide binding stmt =
  let lat = Binding.lattice binding in
  decide_at ~l:lat.Ifc_lattice.Lattice.bottom ~g:lat.Ifc_lattice.Lattice.bottom
    binding stmt

let witness binding stmt =
  let lat = Binding.lattice binding in
  let proof = Generate.theorem1 binding stmt in
  match Check.check lat proof with Ok () -> Ok proof | Error es -> Error es
