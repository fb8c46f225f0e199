(* Text format for user-defined classification schemes. *)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

(* Splits [s] at each character [sep] accepts, except inside a [{...}]
   group, so that a class name such as secret:{NUC,EUR} stays whole. *)
let split_outside_braces sep s =
  let parts = ref [] and start = ref 0 and depth = ref 0 in
  String.iteri
    (fun i c ->
      if c = '{' then incr depth
      else if c = '}' then depth := max 0 (!depth - 1)
      else if !depth = 0 && sep c then begin
        parts := String.sub s !start (i - !start) :: !parts;
        start := i + 1
      end)
    s;
  List.rev (String.sub s !start (String.length s - !start) :: !parts)

let split_words s =
  split_outside_braces (function ' ' | '\t' | ',' -> true | _ -> false) s
  |> List.map String.trim
  |> List.filter (fun w -> w <> "")

(* One "order:" clause is a comma-separated list of chains "a < b < c". *)
let parse_order_clause ~lineno clause =
  let chains = split_outside_braces (Char.equal ',') clause in
  List.fold_left
    (fun acc chain ->
      Result.bind acc (fun edges ->
          let parts =
            String.split_on_char '<' chain |> List.map String.trim
            |> List.filter (fun w -> w <> "")
          in
          match parts with
          | [] | [ _ ] ->
            Error (Printf.sprintf "line %d: expected a < b [< c ...] in order clause" lineno)
          | first :: rest ->
            let rec link prev acc = function
              | [] -> Ok acc
              | x :: more -> link x ((prev, x) :: acc) more
            in
            link first edges rest))
    (Ok []) chains

let parse text =
  let lines = String.split_on_char '\n' text in
  let state =
    List.fold_left
      (fun acc (lineno, raw) ->
        Result.bind acc (fun (name, elements, edges) ->
            let line = String.trim (strip_comment raw) in
            if line = "" then Ok (name, elements, edges)
            else
              let prefixed p =
                if String.length line >= String.length p
                   && String.equal (String.sub line 0 (String.length p)) p
                then Some (String.trim (String.sub line (String.length p)
                                          (String.length line - String.length p)))
                else None
              in
              match prefixed "lattice" with
              | Some rest when rest <> "" -> Ok (Some rest, elements, edges)
              | _ -> (
                match prefixed "elements:" with
                | Some rest -> Ok (name, elements @ split_words rest, edges)
                | None -> (
                  match prefixed "order:" with
                  | Some rest ->
                    Result.map
                      (fun new_edges -> (name, elements, new_edges @ edges))
                      (parse_order_clause ~lineno rest)
                  | None ->
                    Error (Printf.sprintf "line %d: unrecognised directive %S" lineno line)))))
      (Ok (None, [], []))
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  Result.bind state (fun (name, elements, edges) ->
      let name = Option.value name ~default:"user-lattice" in
      if elements = [] then Error (name ^ ": no elements declared")
      else
        (* Each distinct name indexes one row of the order matrix, so a
           duplicated name shares its row; make_from_order reports the
           duplicate. *)
        let index = Hashtbl.create 64 in
        List.iter
          (fun e ->
            if not (Hashtbl.mem index e) then Hashtbl.add index e (Hashtbl.length index))
          elements;
        let missing =
          List.find_opt
            (fun (a, b) -> not (Hashtbl.mem index a && Hashtbl.mem index b))
            edges
        in
        match missing with
        | Some (a, b) ->
          Error
            (Printf.sprintf "%s: order mentions undeclared element in %s < %s" name a b)
        | None ->
          (* Reflexive-transitive closure (Warshall). *)
          let n = Hashtbl.length index in
          let m = Array.make_matrix n n false in
          for i = 0 to n - 1 do m.(i).(i) <- true done;
          List.iter (fun (a, b) -> m.(Hashtbl.find index a).(Hashtbl.find index b) <- true) edges;
          for k = 0 to n - 1 do
            for i = 0 to n - 1 do
              if m.(i).(k) then
                for j = 0 to n - 1 do
                  if m.(k).(j) then m.(i).(j) <- true
                done
            done
          done;
          (* Antisymmetry check: a declared cycle would collapse classes.
             The first offending pair in element order is reported. *)
          let indexed = List.map (fun e -> (e, Hashtbl.find index e)) elements in
          let cycle =
            List.find_map
              (fun (a, i) ->
                List.find_map
                  (fun (b, j) ->
                    if (not (String.equal a b)) && m.(i).(j) && m.(j).(i) then Some (a, b)
                    else None)
                  indexed)
              indexed
          in
          (match cycle with
          | Some (a, b) ->
            Error (Printf.sprintf "%s: order cycle between %s and %s" name a b)
          | None ->
            let leq a b = m.(Hashtbl.find index a).(Hashtbl.find index b) in
            Lattice.make_from_order ~name ~elements ~leq))

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let to_text (l : string Lattice.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("lattice " ^ l.Lattice.name ^ "\n");
  Buffer.add_string buf ("elements: " ^ String.concat " " l.elements ^ "\n");
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf "order: ";
      Buffer.add_string buf a;
      Buffer.add_string buf " < ";
      Buffer.add_string buf b;
      Buffer.add_char buf '\n')
    (Lattice.covers l);
  Buffer.contents buf
