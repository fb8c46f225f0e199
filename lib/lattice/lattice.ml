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

let joins l xs = List.fold_left l.join l.bottom xs

let meets l xs = List.fold_left l.meet l.top xs

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

(* A name's index in [names]: a scan for the shared string first (pointer
   equality), then for another string with the same bytes; -1 when no
   element has that name. Every name a scheme hands out is shared, so the
   pointer pass is the common case; a single [String.equal] scan (a C call
   per element) made [leq] on [mls] about twice as slow. *)
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

(* The one representation of string classes: canonical [names], the
   order matrix [le] and the [lub] and [glb] tables, all indexed by
   position in [names], so every operation is a name lookup and a table
   read. A scheme's source supplies the tables and, optionally, [parse],
   which resolves a name that is not canonical to an index. Without it a
   scheme knows its canonical names only, and any other is a stranger,
   below and equal to nothing. With it (only [stringify] supplies one), a
   name [parse] rejects makes [leq], [join] and [meet] raise. *)
let of_tables ~name ~names ~le ~lub ~glb ~bottom ~top ?parse () =
  let find s =
    match name_index names s with
    | -1 -> (
      match parse with
      | None -> -1
      | Some parse -> (
        match parse s with
        | Ok i -> i
        | Error msg -> invalid_arg ("Lattice.stringify: " ^ msg)))
    | i -> i
  in
  let leq a b =
    let i = find a and j = find b in
    i >= 0 && j >= 0 && le.(i).(j)
  in
  (* [equal] never raises: a rejected name equals nothing. *)
  let rank s = try find s with Invalid_argument _ -> -1 in
  let equal a b =
    let i = rank a and j = rank b in
    i >= 0 && j >= 0 && le.(i).(j) && le.(j).(i)
  in
  let op table a b =
    let i = find a and j = find b in
    if i < 0 || j < 0 then invalid_arg (name ^ ": element not in lattice")
    else names.(table.(i).(j))
  in
  let of_string s =
    match (name_index names s, parse) with
    | -1, None -> Error (Printf.sprintf "%s: unknown class %S" name s)
    | -1, Some parse -> Result.map (Array.get names) (parse s)
    | i, _ -> Ok names.(i)
  in
  {
    name;
    elements = Array.to_list names;
    equal;
    compare = String.compare;
    leq;
    join = op lub;
    meet = op glb;
    bottom = names.(bottom);
    top = names.(top);
    to_string = Fun.id;
    of_string;
  }

(* The native scheme fills the tables once, and no operation on a
   canonical name calls into it again. Another spelling of a class goes
   through the native parser and back to the parsed element's index. *)
let stringify l =
  let natives = Array.of_list l.elements in
  let n = Array.length natives in
  let names = Array.map l.to_string natives in
  let index x =
    let rec go k =
      if k = n then
        invalid_arg
          (Printf.sprintf "Lattice.stringify: %s: %s is not an element" l.name
             (l.to_string x))
      else if l.equal natives.(k) x then k
      else go (k + 1)
    in
    go 0
  in
  let le = Array.init n (fun i -> Array.init n (fun j -> l.leq natives.(i) natives.(j))) in
  let ge = Array.init n (fun i -> Array.init n (fun j -> le.(j).(i))) in
  (* [op] bounds its operands from above under [m] ([le] for join, [ge]
     for meet): a comparable pair's bound is one of the pair, and any
     other pair's is searched for among the pair's common bounds. *)
  let table op m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if m.(i).(j) then j
            else if m.(j).(i) then i
            else
              let x = op natives.(i) natives.(j) in
              let rec among k =
                if k = n then index x
                else if m.(i).(k) && m.(j).(k) && l.equal natives.(k) x then k
                else among (k + 1)
              in
              among 0))
  in
  of_tables ~name:l.name ~names ~le ~lub:(table l.join le) ~glb:(table l.meet ge)
    ~bottom:(index l.bottom) ~top:(index l.top)
    ~parse:(fun s -> Result.map index (l.of_string s))
    ()

(* Build a lattice from an explicit order. One [leq] query per ordered
   pair fills an n×n order matrix; the law checks and the bound searches
   that fill the join and meet tables read only that matrix. *)
let make_from_order ~name ~elements ~leq =
  let ( let* ) = Result.bind in
  let names = Array.of_list elements in
  let n = Array.length names in
  let le = Array.init n (fun i -> Array.init n (fun j -> leq names.(i) names.(j))) in
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
      else if Array.for_all Fun.id m.(i) then Ok i
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
  let* lub = table ~what:"least upper bound" le in
  let* glb = table ~what:"greatest lower bound" ge in
  let* bottom = extremum le "minimum" in
  let* top = extremum ge "maximum" in
  Ok (of_tables ~name ~names ~le ~lub ~glb ~bottom ~top ())
