(* Static bindings (Definition 3). *)

module Lattice = Ifc_lattice.Lattice
module Smap = Ifc_support.Smap
module Ast = Ifc_lang.Ast

type 'a t = { lattice : 'a Lattice.t; map : 'a Smap.t; default : 'a }

let lattice b = b.lattice

let make lattice ?default bindings =
  let default = Option.value default ~default:lattice.Lattice.bottom in
  { lattice; map = Smap.of_list bindings; default }

let of_program lattice ?default ?(overrides = []) (p : Ast.program) =
  let resolve acc (name, cls) =
    Result.bind acc (fun bindings ->
        match cls with
        | None -> Ok bindings
        | Some cls_name ->
          Result.map
            (fun c -> (name, c) :: bindings)
            (lattice.Lattice.of_string cls_name))
  in
  let annotated =
    List.map
      (function
        | Ast.Var_decl { name; cls }
        | Ast.Arr_decl { name; cls; _ }
        | Ast.Sem_decl { name; cls; _ }
        | Ast.Chan_decl { name; cls; _ } ->
          (name, cls))
      p.decls
  in
  Result.map
    (fun bindings -> make lattice ?default (bindings @ overrides))
    (List.fold_left resolve (Ok []) annotated)

let of_spec lattice ?default text =
  let lines = String.split_on_char '\n' text in
  let parse_line acc (lineno, raw) =
    Result.bind acc (fun bindings ->
        let line =
          match String.index_opt raw '#' with
          | None -> String.trim raw
          | Some i -> String.trim (String.sub raw 0 i)
        in
        if line = "" then Ok bindings
        else
          match String.index_opt line ':' with
          | None -> Error (Printf.sprintf "line %d: expected name : class" lineno)
          | Some i ->
            let name = String.trim (String.sub line 0 i) in
            let cls = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            if name = "" then Error (Printf.sprintf "line %d: empty variable name" lineno)
            else
              Result.map
                (fun c -> (name, c) :: bindings)
                (lattice.Lattice.of_string cls))
  in
  Result.map
    (make lattice ?default)
    (List.fold_left parse_line (Ok []) (List.mapi (fun i l -> (i + 1, l)) lines))

let sbind b v = Smap.find_or ~default:b.default v b.map

let bind b v c = { b with map = Smap.add v c b.map }

let rec expr_class b = function
  | Ast.Int _ | Ast.Bool _ -> b.lattice.Lattice.bottom
  | Ast.Var x -> sbind b x
  | Ast.Index (a, i) -> b.lattice.Lattice.join (sbind b a) (expr_class b i)
  | Ast.Unop (_, e) -> expr_class b e
  | Ast.Binop (_, e1, e2) -> b.lattice.Lattice.join (expr_class b e1) (expr_class b e2)

let default b = b.default

let bindings b = Smap.bindings b.map

let names b = Smap.keys b.map

let pp ppf b =
  let pp_cls ppf c = Fmt.string ppf (b.lattice.Lattice.to_string c) in
  Smap.pp pp_cls ppf b.map
