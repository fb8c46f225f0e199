(* Well-formedness checks. See the interface for the rules enforced. *)

module Sset = Ifc_support.Sset
module Smap = Ifc_support.Smap

type severity = Error | Warning

type issue = { severity : severity; span : Loc.span; message : string }

let pp_issue ppf i =
  Fmt.pf ppf "%s: %a: %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    Loc.pp i.span i.message

let error span message = { severity = Error; span; message }

let warning span message = { severity = Warning; span; message }

(* Count every occurrence (not distinct names) of variables from [shared]
   in an expression — the paper's "memory reference" count. *)
let rec occurrences shared = function
  | Ast.Int _ | Ast.Bool _ -> 0
  | Ast.Var x -> if Sset.mem x shared then 1 else 0
  | Ast.Index (a, i) -> (if Sset.mem a shared then 1 else 0) + occurrences shared i
  | Ast.Unop (_, e) -> occurrences shared e
  | Ast.Binop (_, a, b) -> occurrences shared a + occurrences shared b

(* Issues from name usage: undeclared names and category confusion
   between the four namespaces (integers, arrays, semaphores, channels). *)
let usage_issues ~vars ~arrays ~sems ~chans (body : Ast.stmt) =
  let scalar_ok span x acc =
    if Sset.mem x sems then
      error span (Printf.sprintf "semaphore %s used in an expression" x) :: acc
    else if Sset.mem x chans then
      error span (Printf.sprintf "channel %s used in an expression" x) :: acc
    else if Sset.mem x arrays then
      error span (Printf.sprintf "array %s used without an index" x) :: acc
    else if not (Sset.mem x vars) then
      error span (Printf.sprintf "undeclared variable %s" x) :: acc
    else acc
  in
  let array_ok span a acc =
    if Sset.mem a arrays then acc
    else if Sset.mem a vars || Sset.mem a sems || Sset.mem a chans then
      error span (Printf.sprintf "%s is not an array" a) :: acc
    else error span (Printf.sprintf "undeclared array %s" a) :: acc
  in
  let channel_ok span c acc =
    if Sset.mem c chans then acc
    else if Sset.mem c vars || Sset.mem c arrays || Sset.mem c sems then
      error span (Printf.sprintf "%s is not a channel" c) :: acc
    else error span (Printf.sprintf "undeclared channel %s" c) :: acc
  in
  let rec check_expr span e acc =
    match e with
    | Ast.Int _ | Ast.Bool _ -> acc
    | Ast.Var x -> scalar_ok span x acc
    | Ast.Index (a, i) -> array_ok span a acc |> check_expr span i
    | Ast.Unop (_, e) -> check_expr span e acc
    | Ast.Binop (_, e1, e2) -> check_expr span e1 acc |> check_expr span e2
  in
  let rec go (s : Ast.stmt) acc =
    match s.node with
    | Ast.Skip -> acc
    | Ast.Assign (x, e) | Ast.Declassify (x, e, _) ->
      let acc = check_expr s.span e acc in
      if Sset.mem x sems then
        error s.span (Printf.sprintf "assignment to semaphore %s" x) :: acc
      else if Sset.mem x chans then
        error s.span (Printf.sprintf "assignment to channel %s" x) :: acc
      else if Sset.mem x arrays then
        error s.span (Printf.sprintf "assignment to array %s needs an index" x) :: acc
      else if not (Sset.mem x vars) then
        error s.span (Printf.sprintf "undeclared variable %s" x) :: acc
      else acc
    | Ast.Store (a, i, e) ->
      array_ok s.span a acc |> check_expr s.span i |> check_expr s.span e
    | Ast.If (cond, then_, else_) -> check_expr s.span cond acc |> go then_ |> go else_
    | Ast.While (cond, body) -> check_expr s.span cond acc |> go body
    | Ast.Seq stmts | Ast.Cobegin stmts -> List.fold_left (fun acc s -> go s acc) acc stmts
    | Ast.Wait sem | Ast.Signal sem ->
      if Sset.mem sem vars || Sset.mem sem arrays || Sset.mem sem chans then
        error s.span (Printf.sprintf "%s is not a semaphore" sem) :: acc
      else if not (Sset.mem sem sems) then
        error s.span (Printf.sprintf "undeclared semaphore %s" sem) :: acc
      else acc
    | Ast.Send (chan, e) -> channel_ok s.span chan acc |> check_expr s.span e
    | Ast.Recv (chan, x) ->
      let acc = channel_ok s.span chan acc in
      if Sset.mem x sems then
        error s.span (Printf.sprintf "recv into semaphore %s" x) :: acc
      else if Sset.mem x chans then
        error s.span (Printf.sprintf "recv into channel %s" x) :: acc
      else if Sset.mem x arrays then
        error s.span (Printf.sprintf "recv into array %s needs an index" x) :: acc
      else if not (Sset.mem x vars) then
        error s.span (Printf.sprintf "undeclared variable %s" x) :: acc
      else acc
  in
  go body []

(* The §2 atomicity restriction, checked at every cobegin: within a branch,
   each expression/assignment may reference at most one variable that a
   *sibling* branch modifies. *)
let atomicity_issues (body : Ast.stmt) =
  let rec leaf_checks shared (s : Ast.stmt) acc =
    match s.node with
    | Ast.Skip | Ast.Wait _ | Ast.Signal _ | Ast.Recv _ -> acc
    | Ast.Send (_, e) ->
      let count = occurrences shared e in
      if count > 1 then
        warning s.span
          (Printf.sprintf
             "send payload makes %d references to variables modified by concurrent \
              processes; the paper requires at most one for non-indivisible execution"
             count)
        :: acc
      else acc
    | Ast.Store (a, i, e) ->
      let count =
        occurrences shared i + occurrences shared e
        + if Sset.mem a shared then 1 else 0
      in
      if count > 1 then
        warning s.span
          (Printf.sprintf
             "array store makes %d references to variables modified by concurrent \
              processes; the paper requires at most one for non-indivisible execution"
             count)
        :: acc
      else acc
    | Ast.Assign (x, e) | Ast.Declassify (x, e, _) ->
      let count = occurrences shared e + if Sset.mem x shared then 1 else 0 in
      if count > 1 then
        warning s.span
          (Printf.sprintf
             "assignment makes %d references to variables modified by concurrent \
              processes; the paper requires at most one for non-indivisible execution"
             count)
        :: acc
      else acc
    | Ast.If (cond, then_, else_) ->
      let acc = expr_check s.span shared cond acc in
      leaf_checks shared then_ acc |> leaf_checks shared else_
    | Ast.While (cond, body) ->
      let acc = expr_check s.span shared cond acc in
      leaf_checks shared body acc
    | Ast.Seq stmts -> List.fold_left (fun acc s -> leaf_checks shared s acc) acc stmts
    | Ast.Cobegin branches ->
      (* Nested cobegins are re-analysed at their own node below; their
         branches also inherit the enclosing shared set. *)
      List.fold_left (fun acc b -> leaf_checks shared b acc) acc branches
  and expr_check span shared e acc =
    let count = occurrences shared e in
    if count > 1 then
      warning span
        (Printf.sprintf
           "expression makes %d references to variables modified by concurrent processes"
           count)
      :: acc
    else acc
  in
  let rec go (s : Ast.stmt) acc =
    match s.node with
    | Ast.Skip | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.Wait _
    | Ast.Signal _ | Ast.Send _ | Ast.Recv _ ->
      acc
    | Ast.If (_, then_, else_) -> go then_ acc |> go else_
    | Ast.While (_, body) -> go body acc
    | Ast.Seq stmts -> List.fold_left (fun acc s -> go s acc) acc stmts
    | Ast.Cobegin branches ->
      let mods = List.map Vars.modified branches in
      let acc =
        List.fold_left
          (fun acc (i, branch) ->
            let shared =
              List.concat
                (List.filteri (fun j _ -> j <> i) (List.map Sset.elements mods))
              |> Sset.of_list
            in
            leaf_checks shared branch acc)
          acc
          (List.mapi (fun i b -> (i, b)) branches)
      in
      List.fold_left (fun acc b -> go b acc) acc branches
  in
  go body []

let decl_kind = function
  | Ast.Var_decl _ -> "integer variable"
  | Ast.Arr_decl _ -> "array"
  | Ast.Sem_decl _ -> "semaphore"
  | Ast.Chan_decl _ -> "channel"

let duplicate_issues (p : Ast.program) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun decl ->
      let name =
        match decl with
        | Ast.Var_decl { name; _ }
        | Ast.Arr_decl { name; _ }
        | Ast.Sem_decl { name; _ }
        | Ast.Chan_decl { name; _ } ->
          name
      in
      let kind = decl_kind decl in
      match Hashtbl.find_opt seen name with
      | Some first_kind ->
        let detail =
          if first_kind = kind then Printf.sprintf "both as %s" kind
          else Printf.sprintf "first as %s, again as %s" first_kind kind
        in
        Some
          (error Loc.dummy
             (Printf.sprintf "duplicate declaration of %s (%s)" name detail))
      | None ->
        Hashtbl.add seen name kind;
        None)
    p.decls

let init_issues (p : Ast.program) =
  List.filter_map
    (function
      | Ast.Sem_decl { name; init; _ } when init < 0 ->
        Some (error Loc.dummy (Printf.sprintf "semaphore %s has negative initial count" name))
      | Ast.Arr_decl { name; size; _ } when size <= 0 ->
        Some (error Loc.dummy (Printf.sprintf "array %s has non-positive size" name))
      | Ast.Chan_decl { name; cap; _ } when cap <= 0 ->
        Some
          (error Loc.dummy (Printf.sprintf "channel %s has non-positive capacity" name))
      | Ast.Sem_decl _ | Ast.Var_decl _ | Ast.Arr_decl _ | Ast.Chan_decl _ -> None)
    p.decls

(* Duplicate, init and usage issues are all errors; the atomicity
   issues are all warnings, so [errors] need not compute them. *)
let errors (p : Ast.program) =
  let vars, arrays, sems, chans = Vars.declared p in
  duplicate_issues p @ init_issues p @ usage_issues ~vars ~arrays ~sems ~chans p.body

let check (p : Ast.program) =
  let issues = errors p @ atomicity_issues p.body in
  let severity_rank i = match i.severity with Error -> 0 | Warning -> 1 in
  List.stable_sort (fun a b -> compare (severity_rank a) (severity_rank b)) issues

let is_valid p = errors p = []

(* ------------------------------------------------------------------ *)
(* Linked units *)

let decl_name = function
  | Ast.Var_decl { name; _ }
  | Ast.Arr_decl { name; _ }
  | Ast.Sem_decl { name; _ }
  | Ast.Chan_decl { name; _ } ->
    name

(* Interface checks for one module, independent of the rest of the unit:
   every export is a locally declared integer variable, no import is
   shadowed by a local declaration, and no name appears twice in the same
   clause. The body is checked with imports in scope as integer
   variables — that is exactly how the elaboration will declare them if
   the providing side does. *)
let module_issues (m : Ast.module_unit) =
  let label = Printf.sprintf "module %s" m.iface.m_name in
  let local = List.map decl_name m.m_decls |> Sset.of_list in
  let dup_entries what entries =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (e : Ast.iface_entry) ->
        if Hashtbl.mem seen e.iv_name then
          Some
            (error Loc.dummy
               (Printf.sprintf "%s lists %s twice in %s" label e.iv_name what))
        else begin
          Hashtbl.add seen e.iv_name ();
          None
        end)
      entries
  in
  let provide_issues =
    List.filter_map
      (fun (e : Ast.iface_entry) ->
        let declared_as =
          List.find_opt (fun d -> String.equal (decl_name d) e.iv_name) m.m_decls
        in
        match declared_as with
        | Some (Ast.Var_decl _) -> None
        | Some d ->
          Some
            (error Loc.dummy
               (Printf.sprintf "%s provides %s, which is declared as a %s; interfaces \
                                export integer variables only"
                  label e.iv_name (decl_kind d)))
        | None ->
          Some
            (error Loc.dummy
               (Printf.sprintf "%s provides %s but does not declare it" label e.iv_name)))
      m.iface.provides
  in
  let require_issues =
    List.filter_map
      (fun (e : Ast.iface_entry) ->
        if Sset.mem e.iv_name local then
          Some
            (error Loc.dummy
               (Printf.sprintf "%s requires %s but also declares it locally" label
                  e.iv_name))
        else None)
      m.iface.requires
  in
  let scoped =
    let imports =
      List.map (fun (e : Ast.iface_entry) -> Ast.Var_decl { name = e.iv_name; cls = None })
        m.iface.requires
    in
    { Ast.decls = m.m_decls @ imports; body = m.m_body }
  in
  dup_entries "provides" m.iface.provides
  @ dup_entries "requires" m.iface.requires
  @ provide_issues @ require_issues @ check scoped

let check_linked (l : Ast.linked) =
  let name_issues =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (m : Ast.module_unit) ->
        let n = m.iface.m_name in
        if Hashtbl.mem seen n then
          Some (error Loc.dummy (Printf.sprintf "duplicate module name %s" n))
        else begin
          Hashtbl.add seen n ();
          None
        end)
      l.modules
  in
  (* Each exported name has a unique provider; the linker would otherwise
     not know whose class bound governs it. *)
  let export_issues =
    let seen = Hashtbl.create 16 in
    List.concat_map
      (fun (m : Ast.module_unit) ->
        List.filter_map
          (fun (e : Ast.iface_entry) ->
            match Hashtbl.find_opt seen e.iv_name with
            | Some first ->
              Some
                (error Loc.dummy
                   (Printf.sprintf "%s exported by both module %s and module %s" e.iv_name
                      first m.iface.m_name))
            | None ->
              Hashtbl.add seen e.iv_name m.iface.m_name;
              None)
          m.iface.provides)
      l.modules
  in
  (* Every import resolves: to another module's export or to a main
     declaration. Self-resolution is excluded — a module cannot satisfy
     its own requirement. *)
  let resolution_issues =
    let main_names =
      match l.main with
      | None -> Sset.empty
      | Some p -> List.map decl_name p.decls |> Sset.of_list
    in
    List.concat_map
      (fun (m : Ast.module_unit) ->
        List.filter_map
          (fun (e : Ast.iface_entry) ->
            let provided_elsewhere =
              List.exists
                (fun (other : Ast.module_unit) ->
                  (not (String.equal other.iface.m_name m.iface.m_name))
                  && List.exists
                       (fun (p : Ast.iface_entry) -> String.equal p.iv_name e.iv_name)
                       other.iface.provides)
                l.modules
            in
            if provided_elsewhere || Sset.mem e.iv_name main_names then None
            else
              Some
                (error Loc.dummy
                   (Printf.sprintf
                      "module %s requires %s, which no other module provides and main \
                       does not declare"
                      m.iface.m_name e.iv_name)))
          m.iface.requires)
      l.modules
  in
  (* Main is checked with every export in scope as an integer variable. *)
  let main_issues =
    match l.main with
    | None -> []
    | Some p ->
      let exports =
        List.concat_map
          (fun (m : Ast.module_unit) ->
            List.filter_map
              (fun (e : Ast.iface_entry) ->
                if List.exists (fun d -> String.equal (decl_name d) e.iv_name) p.decls
                then None
                else Some (Ast.Var_decl { name = e.iv_name; cls = None }))
              m.iface.provides)
          l.modules
      in
      check { p with decls = p.decls @ exports }
  in
  let issues =
    name_issues @ export_issues @ resolution_issues
    @ List.concat_map module_issues l.modules
    @ main_issues
  in
  let severity_rank i = match i.severity with Error -> 0 | Warning -> 1 in
  List.stable_sort (fun a b -> compare (severity_rank a) (severity_rank b)) issues

let linked_errors l = List.filter (fun i -> i.severity = Error) (check_linked l)

let linked_is_valid l = linked_errors l = []

(* Names used in array position (Index/Store). *)
let rec array_names (s : Ast.stmt) =
  let rec of_expr = function
    | Ast.Int _ | Ast.Bool _ | Ast.Var _ -> Sset.empty
    | Ast.Index (a, i) -> Sset.add a (of_expr i)
    | Ast.Unop (_, e) -> of_expr e
    | Ast.Binop (_, e1, e2) -> Sset.union (of_expr e1) (of_expr e2)
  in
  match s.node with
  | Ast.Skip | Ast.Wait _ | Ast.Signal _ | Ast.Recv _ -> Sset.empty
  | Ast.Assign (_, e) | Ast.Declassify (_, e, _) | Ast.Send (_, e) -> of_expr e
  | Ast.Store (a, i, e) -> Sset.add a (Sset.union (of_expr i) (of_expr e))
  | Ast.If (cond, t, f) ->
    Sset.union (of_expr cond) (Sset.union (array_names t) (array_names f))
  | Ast.While (cond, b) -> Sset.union (of_expr cond) (array_names b)
  | Ast.Seq ss | Ast.Cobegin ss ->
    List.fold_left (fun acc s -> Sset.union acc (array_names s)) Sset.empty ss

let default_array_size = 8

let default_channel_capacity = 1

let infer_decls (p : Ast.program) =
  let vars, arrays, sems, chans = Vars.declared p in
  let known = Sset.union (Sset.union vars chans) (Sset.union arrays sems) in
  let used_sems = Vars.semaphores p.body in
  let used_chans = Vars.channels p.body in
  let used_arrays = array_names p.body in
  let used_all = Vars.all_vars p.body in
  let missing_sems = Sset.diff used_sems known in
  let missing_chans = Sset.diff used_chans known in
  let missing_vars =
    Sset.diff
      (Sset.diff (Sset.diff (Sset.diff used_all used_sems) used_chans) used_arrays)
      known
  in
  let missing_arrays = Sset.diff used_arrays known in
  let new_decls =
    List.map (fun name -> Ast.Var_decl { name; cls = None }) (Sset.elements missing_vars)
    @ List.map
        (fun name -> Ast.Arr_decl { name; size = default_array_size; cls = None })
        (Sset.elements missing_arrays)
    @ List.map
        (fun name -> Ast.Sem_decl { name; init = 0; cls = None })
        (Sset.elements missing_sems)
    @ List.map
        (fun name ->
          Ast.Chan_decl { name; cap = default_channel_capacity; cls = None })
        (Sset.elements missing_chans)
  in
  { p with decls = p.decls @ new_decls }
