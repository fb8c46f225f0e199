(* The built-in schemes with string classes, built once at initialisation. *)

let two = Lattice.stringify Chain.two

let table =
  [
    ("two", two);
    ("three", Lattice.stringify Chain.three);
    ("four", Lattice.stringify Chain.four);
    ("mls", Lattice.stringify Mls.standard);
  ]

(* Each scheme's specification text, rendered once. *)
let texts = List.map (fun (_, l) -> (l, Spec.to_text l)) table

let to_text l =
  match List.find_opt (fun (b, _) -> b == l) texts with
  | Some (_, text) -> text
  | None -> Spec.to_text l

let find name = List.assoc_opt name table

let named name =
  List.find_map
    (fun (_, l) -> if String.equal l.Lattice.name name then Some l else None)
    table
