(** Pretty-printer for programs, statements and expressions.

    Output re-parses to a structurally equal AST ([parse ∘ print = id] up
    to spans) — a property the test suite checks on random programs. The
    printer emits the same concrete syntax the parser reads: [begin/end]
    blocks, [cobegin .. || .. coend], keyword boolean connectives.

    {2 Layout}

    The printed form is canonical: version-1 certificate program
    digests hash it, so its bytes are fixed. It is
    the layout [Format] gives these boxes at margin 78 and maximum
    indentation 68, computed here directly into one buffer:

    - Programs, modules and declaration lists are vertical boxes: every
      break starts a new line.
    - Assignments, [if] and [while] arms, [else] arms, module headers
      and their [provides]/[requires] clauses are hv boxes of offset 2;
      whole [if]s, [while]s, blocks and [cobegin]s, and the statement
      lists inside blocks and [cobegin]s, are hv boxes of offset 0.
    - An hv box opened at column [c] stays on one line if and only if
      its flat width is strictly less than [78 - c]. The flat width is
      its text plus one column per break.
    - Otherwise every break of that box starts a new line, at column
      [min 68 (c + box offset + break offset)]; the only hv break with
      an offset is the one after [begin] or [cobegin], of 2. Boxes
      inside it decide for themselves, by the same rule, at the column
      where they open.

    Every box opens at the start of a line or inside a box already laid
    flat, so the column is never past 68 when a box must break.

    Cost: one pass over the AST into one buffer. A box is first
    printed flat and, if it reaches the margin, truncated and printed
    broken, so output wasted on a try is at most one line per box. *)

val pp_expr : Format.formatter -> Ast.expr -> unit

val pp_stmt : Format.formatter -> Ast.stmt -> unit
(** [pp_stmt ppf s] prints {!stmt_to_string}[ s] as one string, as do
    the other [pp_] functions for their forms: callers print them at
    column 0. *)

val pp_decl : Format.formatter -> Ast.decl -> unit

val pp_program : Format.formatter -> Ast.program -> unit

val expr_to_string : Ast.expr -> string

val stmt_to_string : Ast.stmt -> string

val program_to_string : Ast.program -> string

val pp_module_unit : Format.formatter -> Ast.module_unit -> unit

val pp_linked : Format.formatter -> Ast.linked -> unit

val linked_to_string : Ast.linked -> string
(** [linked_to_string l] renders a linked unit; like {!program_to_string}
    it round-trips through {!Parser.parse_linked} and is the canonical
    form module digests are computed over. An empty unit (no modules, no
    main) prints as [skip] so the digest basis is never the empty
    string. *)
