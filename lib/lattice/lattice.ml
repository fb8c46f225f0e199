(* Finite security classification schemes (paper, Definition 1). See the
   interface for the design discussion. *)

type 'a t = {
  name : string;
  elements : 'a list;
  equal : 'a -> 'a -> bool;
  compare : 'a -> 'a -> int;
  leq : 'a -> 'a -> bool;
  join : 'a -> 'a -> 'a;
  meet : 'a -> 'a -> 'a;
  bottom : 'a;
  top : 'a;
  to_string : 'a -> string;
  of_string : string -> ('a, string) result;
}

let pp l ppf x = Fmt.string ppf (l.to_string x)

let mem l x = List.exists (l.equal x) l.elements

let joins l xs = List.fold_left l.join l.bottom xs

let meets l xs = List.fold_left l.meet l.top xs

let lt l x y = l.leq x y && not (l.equal x y)

let comparable l x y = l.leq x y || l.leq y x

(* One [leq] query per ordered pair fills the strict-order matrix; the
   covering test then reads only the matrix. *)
let covers l =
  let arr = Array.of_list l.elements in
  let n = Array.length arr in
  let strict =
    Array.init n (fun i ->
        Array.init n (fun j -> l.leq arr.(i) arr.(j) && not (l.equal arr.(i) arr.(j))))
  in
  let between i j =
    let rec go k = k < n && ((strict.(i).(k) && strict.(k).(j)) || go (k + 1)) in
    go 0
  in
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j ->
             if strict.(i).(j) && not (between i j) then Some (arr.(i), arr.(j))
             else None)
           (List.init n Fun.id)))

let height l =
  (* Longest chain via memoised depth over the covering DAG. *)
  let cov = covers l in
  let tbl = Hashtbl.create 17 in
  let rec depth x =
    match Hashtbl.find_opt tbl (l.to_string x) with
    | Some d -> d
    | None ->
      let ups = List.filter_map (fun (a, b) -> if l.equal a x then Some b else None) cov in
      let d = List.fold_left (fun acc y -> max acc (1 + depth y)) 0 ups in
      Hashtbl.add tbl (l.to_string x) d;
      d
  in
  depth l.bottom

let rename name l = { l with name }

let to_dot l =
  let buf = Buffer.create 256 in
  let quote s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\"" in
  Buffer.add_string buf "digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n";
  List.iter
    (fun x -> Buffer.add_string buf (Printf.sprintf "  %s;\n" (quote (l.to_string x))))
    l.elements;
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s;\n" (quote (l.to_string a)) (quote (l.to_string b))))
    (covers l);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let dual ?name l =
  {
    l with
    name = (match name with Some n -> n | None -> "dual(" ^ l.name ^ ")");
    leq = (fun a b -> l.leq b a);
    join = l.meet;
    meet = l.join;
    bottom = l.top;
    top = l.bottom;
  }

(* The lookups behind [stringify] are top-level functions over explicit
   arrays, so an operation allocates no closure. [name_index] scans for a
   shared name first (pointer equality), then for another string with the
   same bytes; -1 when no element has that name. Every name a stringified
   scheme hands out is shared, so the pointer pass is the common case; a
   single [String.equal] scan (a C call per element) made [leq] on [mls]
   about twice as slow. *)
let name_index names s =
  let n = Array.length names in
  let i = ref 0 in
  while !i < n && not (names.(!i) == s) do incr i done;
  if !i < n then !i
  else begin
    i := 0;
    while !i < n && not (String.equal names.(!i) s) do incr i done;
    if !i < n then !i else -1
  end

(* Binary search of [x] among [natives] visited in [order], which sorts
   them by [compare]; the index into [natives], or -1. *)
let native_index compare natives order x =
  let lo = ref 0 and hi = ref (Array.length order) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare x natives.(order.(mid)) in
    if c = 0 then found := order.(mid) else if c < 0 then hi := mid else lo := mid + 1
  done;
  !found

let stringify l =
  let natives = Array.of_list l.elements in
  let names = Array.map l.to_string natives in
  let order = Array.init (Array.length natives) Fun.id in
  Array.stable_sort (fun i j -> l.compare natives.(i) natives.(j)) order;
  let slot x =
    match native_index l.compare natives order x with
    | -1 ->
      invalid_arg
        (Printf.sprintf "Lattice.stringify: %s: %s is not an element" l.name
           (l.to_string x))
    | i -> i
  in
  let find s =
    match name_index names s with
    | -1 -> (
      match l.of_string s with
      | Ok x -> slot x
      | Error msg -> invalid_arg ("Lattice.stringify: " ^ msg))
    | i -> i
  in
  (* Comparable operands are the common case; their join or meet is one
     of them, so the native operation and its search are skipped. *)
  let join a b =
    let i = find a in
    let j = find b in
    let x = natives.(i) and y = natives.(j) in
    if l.leq x y then names.(j)
    else if l.leq y x then names.(i)
    else names.(slot (l.join x y))
  in
  let meet a b =
    let i = find a in
    let j = find b in
    let x = natives.(i) and y = natives.(j) in
    if l.leq x y then names.(i)
    else if l.leq y x then names.(j)
    else names.(slot (l.meet x y))
  in
  {
    name = l.name;
    elements = Array.to_list names;
    equal = String.equal;
    compare = String.compare;
    leq = (fun a b -> l.leq natives.(find a) natives.(find b));
    join;
    meet;
    bottom = names.(slot l.bottom);
    top = names.(slot l.top);
    to_string = Fun.id;
    of_string =
      (fun s ->
        match name_index names s with
        | -1 -> Result.map (fun x -> names.(slot x)) (l.of_string s)
        | i -> Ok names.(i));
  }

(* Build a lattice from an explicit order. One [leq] query per ordered
   pair fills an n×n order matrix; the law checks, the bound searches and
   every operation afterwards read only that matrix and the join and meet
   tables. As in [stringify], an operand is found by its printed name
   (pointer, then bytes), so with [to_string = Fun.id] an operation
   allocates nothing. *)
let make_from_order ~name ~elements ~leq ~to_string =
  let ( let* ) = Result.bind in
  let arr = Array.of_list elements in
  let n = Array.length arr in
  let names = Array.map to_string arr in
  let le = Array.init n (fun i -> Array.init n (fun j -> leq arr.(i) arr.(j))) in
  let ge = Array.init n (fun i -> Array.init n (fun j -> le.(j).(i))) in
  (* The least of [i]'s and [j]'s upper bounds under the order matrix [m]
     ([ge] gives lower bounds): the first bound, in element order, below
     every bound. The scan keeps a candidate that no later bound lies
     strictly below; on a transitive order it is least whenever anything
     is, and every least bound is equivalent to it, so one pass over the
     bounds decides existence. *)
  let bound ~what m i j =
    let mi = m.(i) and mj = m.(j) in
    let c = ref (-1) in
    for z = 0 to n - 1 do
      if mi.(z) && mj.(z) && (!c < 0 || (m.(z).(!c) && not m.(!c).(z))) then c := z
    done;
    let c = !c in
    let rec least w = w = n || (((not (mi.(w) && mj.(w))) || m.(c).(w)) && least (w + 1)) in
    if c < 0 || not (least 0) then
      Error (Printf.sprintf "%s: no %s for %s and %s" name what names.(i) names.(j))
    else
      let rec first z = if mi.(z) && mj.(z) && m.(z).(c) then z else first (z + 1) in
      Ok (first 0)
  in
  let table ~what m =
    let tbl = Array.make_matrix n n 0 in
    let rec fill i j =
      if i >= n then Ok tbl
      else if j >= n then fill (i + 1) 0
      else
        let* k = bound ~what m i j in
        tbl.(i).(j) <- k;
        fill i (j + 1)
    in
    fill 0 0
  in
  (* The first element below (for [ge], above) every element. *)
  let extremum m what =
    let rec go i =
      if i >= n then Error (Printf.sprintf "%s: no %s element" name what)
      else if Array.for_all Fun.id m.(i) then Ok arr.(i)
      else go (i + 1)
    in
    go 0
  in
  let* () = if n = 0 then Error (name ^ ": empty carrier") else Ok () in
  let* () =
    let reflexive = ref true in
    for i = 0 to n - 1 do
      if not le.(i).(i) then reflexive := false
    done;
    if !reflexive then Ok () else Error (name ^ ": order is not reflexive")
  in
  let* () =
    let transitive = ref true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if le.(i).(j) then
          for k = 0 to n - 1 do
            if le.(j).(k) && not le.(i).(k) then transitive := false
          done
      done
    done;
    if !transitive then Ok () else Error (name ^ ": order is not transitive")
  in
  let* () =
    let sorted = List.sort_uniq String.compare (Array.to_list names) in
    if List.length sorted = n then Ok ()
    else Error (name ^ ": duplicate element names")
  in
  let* join_table = table ~what:"least upper bound" le in
  let* meet_table = table ~what:"greatest lower bound" ge in
  let* bottom = extremum le "minimum" in
  let* top = extremum ge "maximum" in
  let find x = name_index names (to_string x) in
  let op table x y =
    let i = find x and j = find y in
    if i < 0 || j < 0 then invalid_arg (name ^ ": element not in lattice")
    else arr.(table.(i).(j))
  in
  let leq x y =
    let i = find x and j = find y in
    i >= 0 && j >= 0 && le.(i).(j)
  in
  let equal x y =
    let i = find x and j = find y in
    i >= 0 && j >= 0 && le.(i).(j) && le.(j).(i)
  in
  let of_string s =
    match name_index names s with
    | -1 -> Error (Printf.sprintf "%s: unknown class %S" name s)
    | i -> Ok arr.(i)
  in
  let compare x y = String.compare (to_string x) (to_string y) in
  Ok
    {
      name;
      elements;
      equal;
      compare;
      leq;
      join = op join_table;
      meet = op meet_table;
      bottom;
      top;
      to_string;
      of_string;
    }
