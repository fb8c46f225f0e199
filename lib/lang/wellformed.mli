(** Static well-formedness checks, independent of any security analysis.

    Errors make a program meaningless (undeclared names, a semaphore used
    in arithmetic); warnings flag violations of the paper's §2 atomicity
    restriction — an expression or assignment referencing more than one
    variable that another process can change is only sound if executed
    indivisibly, which the paper allows but implementations avoid. *)

type severity = Error | Warning

type issue = { severity : severity; span : Loc.span; message : string }

val pp_issue : Format.formatter -> issue -> unit

val check : Ast.program -> issue list
(** [check p] returns all issues, errors first. *)

val atomicity_issues : Ast.stmt -> issue list
(** The §2 atomicity warnings alone: statements referencing more than one
    variable modified by a sibling [cobegin] branch. Exposed so the
    concurrency analyzer can cross-reference a detected race with the
    atomicity warning it makes exploitable. *)

val errors : Ast.program -> issue list
(** [errors p] is [check p] restricted to severity [Error], in the same
    order. It skips the atomicity check, which yields only warnings. *)

val is_valid : Ast.program -> bool
(** [is_valid p] iff [errors p = []]. *)

val check_linked : Ast.linked -> issue list
(** [check_linked l] checks a linked unit, errors first: unique module
    names; every exported name has a unique provider and is a locally
    declared integer variable; no import is shadowed by a local
    declaration or listed twice; every import resolves to another
    module's export or a main declaration; each module body (with its
    imports in scope as integer variables) and the main program (with all
    exports in scope) pass {!check}. *)

val linked_errors : Ast.linked -> issue list
(** [linked_errors l] is [check_linked l] restricted to severity [Error]. *)

val linked_is_valid : Ast.linked -> bool
(** [linked_is_valid l] iff [linked_errors l = []]. *)

val default_array_size : int
(** Size given to arrays synthesised by {!infer_decls} (8). *)

val default_channel_capacity : int
(** Capacity given to channels synthesised by {!infer_decls} (1). *)

val infer_decls : Ast.program -> Ast.program
(** [infer_decls p] adds declarations for any name used but not declared:
    names in [wait]/[signal] position become semaphores (initial count 0),
    names in [send]/[recv] channel position channels (of
    {!default_channel_capacity}), names in index position arrays (of
    {!default_array_size}), all others integer variables. Existing
    declarations are kept. Useful for programmatically built programs and
    test fixtures. *)
