(* The fault-injection registry: one variant, one table of names, one
   parser. *)

type t =
  | Inversion
  | Cert_inversion
  | Lint_unsound
  | Chan_unsound
  | Store_stale
  | Dataflow_unsound
  | Refine_unsound
  | Stall of int

(* Registry order, which is also the order planted fuzz cases are
   appended in. *)
let table =
  [
    ("inversion", Inversion);
    ("cert-inversion", Cert_inversion);
    ("lint-unsound", Lint_unsound);
    ("chan-unsound", Chan_unsound);
    ("store-stale", Store_stale);
    ("dataflow-unsound", Dataflow_unsound);
    ("refine-unsound", Refine_unsound);
  ]

let names = List.map fst table @ [ "stall:MS" ]

let rank = function
  | Stall _ -> List.length table
  | p -> Option.get (List.find_index (fun (_, q) -> q = p) table)

let compare a b =
  match Int.compare (rank a) (rank b) with 0 -> Stdlib.compare a b | c -> c

let parse_one name =
  match List.assoc_opt name table with
  | Some p -> Ok p
  | None -> (
    let ms =
      if String.starts_with ~prefix:"stall:" name then
        int_of_string_opt (String.sub name 6 (String.length name - 6))
      else None
    in
    match ms with
    | Some ms when ms > 0 -> Ok (Stall ms)
    | _ ->
      Error
        (Printf.sprintf "unknown plant %S in IFC_PLANT (known plants: %s)" name
           (String.concat ", " names)))

let parse text =
  String.split_on_char ',' text
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.fold_left
       (fun acc name ->
         Result.bind acc (fun ps -> Result.map (fun p -> p :: ps) (parse_one name)))
       (Ok [])
  |> Result.map (List.sort_uniq compare)

let of_env () =
  match Sys.getenv_opt "IFC_PLANT" with None -> Ok [] | Some text -> parse text

let stall_ms plants =
  List.fold_left (fun acc p -> match p with Stall ms -> ms | _ -> acc) 0 plants
