(* Extended classification schemes (Definition 4): adjoin nil below C'. *)

type 'a elt = Nil | El of 'a

let join j x y =
  match (x, y) with
  | Nil, z | z, Nil -> z
  | El a, El b -> El (j a b)

let lift x = El x

let is_nil = function Nil -> true | El _ -> false

let get ~default = function Nil -> default | El x -> x

let make (l : 'a Lattice.t) =
  let equal x y =
    match (x, y) with
    | Nil, Nil -> true
    | El a, El b -> l.Lattice.equal a b
    | Nil, El _ | El _, Nil -> false
  in
  let compare x y =
    match (x, y) with
    | Nil, Nil -> 0
    | Nil, El _ -> -1
    | El _, Nil -> 1
    | El a, El b -> l.compare a b
  in
  let leq x y =
    match (x, y) with
    | Nil, _ -> true
    | El _, Nil -> false
    | El a, El b -> l.leq a b
  in
  let meet x y =
    match (x, y) with
    | Nil, _ | _, Nil -> Nil
    | El a, El b -> El (l.meet a b)
  in
  let to_string = function Nil -> "nil" | El a -> l.to_string a in
  let of_string s =
    if String.equal s "nil" then Ok Nil else Result.map lift (l.of_string s)
  in
  {
    Lattice.name = "extended(" ^ l.name ^ ")";
    elements = Nil :: List.map lift l.elements;
    equal;
    compare;
    leq;
    join = join l.join;
    meet;
    bottom = Nil;
    top = El l.top;
    to_string;
    of_string;
  }

let pp l ppf x = Fmt.string ppf (match x with Nil -> "nil" | El a -> l.Lattice.to_string a)
