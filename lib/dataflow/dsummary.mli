(** Per-module dataflow facts.

    The facts a module contributes to a linked lint — its statically
    unreachable arms and dead stores — depend only on the module body:
    the interval analysis starts from an unconstrained entry state, so
    whatever the linking context, the facts stay sound. {!of_linked}
    collects them module by module, and {!apply} re-applies them to the
    elaborated unit. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc

type t = {
  d_pruned : Prune.pruned list;
  d_dead : (string * Loc.span) list;
}

val of_program : Ast.program -> t
(** Run {!Prune.analyze} and keep the facts. *)

val of_linked : Ast.linked -> t
(** Each module's facts ({!of_program} of {!Ifc_lang.Ast.module_program}),
    in unit order, then the main program's, concatenated. *)

val apply : Ast.program -> t -> Prune.result
(** Re-apply recorded facts to a program containing the summarized
    statements (an elaborated linked unit): arms whose spans are listed
    are rewritten to [skip], dead stores are carried over. Solver
    counters are zero — nothing was re-walked. *)
