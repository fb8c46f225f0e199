(* The built-in schemes with string classes, built once at initialisation. *)

let two = Lattice.stringify Chain.two

let table =
  [
    ("two", two);
    ("three", Lattice.stringify Chain.three);
    ("four", Lattice.stringify Chain.four);
    ("mls", Lattice.stringify Mls.standard);
  ]

let find name = List.assoc_opt name table

let named name =
  List.find_map
    (fun (_, l) -> if String.equal l.Lattice.name name then Some l else None)
    table
