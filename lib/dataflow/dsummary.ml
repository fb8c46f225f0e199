(* Dataflow facts: what pruning found, re-applicable to a larger program. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc

type t = {
  d_pruned : Prune.pruned list;
  d_dead : (string * Loc.span) list;
}

let of_program p =
  let r = Prune.analyze p in
  { d_pruned = r.Prune.pruned; d_dead = r.Prune.dead_stores }

let of_linked (l : Ast.linked) =
  let ts =
    List.map (fun m -> of_program (Ast.module_program m)) l.Ast.modules
    @ Option.to_list (Option.map of_program l.Ast.main)
  in
  {
    d_pruned = List.concat_map (fun t -> t.d_pruned) ts;
    d_dead = List.concat_map (fun t -> t.d_dead) ts;
  }

let apply (p : Ast.program) t =
  let listed span =
    (not (Loc.is_dummy span))
    && List.exists (fun (pr : Prune.pruned) -> pr.Prune.p_span = span) t.d_pruned
  in
  let skip_of (s : Ast.stmt) = { s with Ast.node = Ast.Skip } in
  let rec walk (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.If (c, a, b) ->
      let a' = if listed a.Ast.span then skip_of a else walk a in
      let b' = if listed b.Ast.span then skip_of b else walk b in
      { s with Ast.node = Ast.If (c, a', b') }
    | Ast.While (c, body) ->
      let body' = if listed body.Ast.span then skip_of body else walk body in
      { s with Ast.node = Ast.While (c, body') }
    | Ast.Seq ss -> { s with Ast.node = Ast.Seq (List.map walk ss) }
    | Ast.Cobegin ss -> { s with Ast.node = Ast.Cobegin (List.map walk ss) }
    | _ -> s
  in
  {
    Prune.program = { p with Ast.body = walk p.Ast.body };
    pruned = t.d_pruned;
    dead_stores = t.d_dead;
    iterations = 0;
    visits = 0;
  }
