(* Linear classification schemes: join = max, meet = min. *)

let make ?name names =
  if names = [] then invalid_arg "Chain.make: empty level list";
  let arr = Array.of_list names in
  let n = Array.length arr in
  if List.length (List.sort_uniq String.compare names) <> n then
    invalid_arg "Chain.make: duplicate level names";
  let name =
    match name with Some s -> s | None -> "chain(" ^ String.concat "<" names ^ ")"
  in
  let to_string i =
    if i < 0 || i >= n then invalid_arg "Chain: level out of range" else arr.(i)
  in
  let of_string s =
    let rec go i =
      if i >= n then Error (Printf.sprintf "%s: unknown class %S" name s)
      else if String.equal arr.(i) s then Ok i
      else go (i + 1)
    in
    go 0
  in
  {
    Lattice.name;
    elements = List.init n Fun.id;
    equal = Int.equal;
    compare = Int.compare;
    leq = ( <= );
    join = max;
    meet = min;
    bottom = 0;
    top = n - 1;
    to_string;
    of_string;
  }

let two = make ~name:"two-point" [ "low"; "high" ]

let three = make ~name:"three-point" [ "low"; "mid"; "high" ]

let four =
  make ~name:"four-level" [ "unclassified"; "confidential"; "secret"; "topsecret" ]

let of_size n =
  if n <= 0 then invalid_arg "Chain.of_size: need at least one level";
  make ~name:(Printf.sprintf "chain-%d" n) (List.init n (Printf.sprintf "L%d"))
