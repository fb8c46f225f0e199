(** The one structural fold behind every program key.

    A direct walk over the tree, one pass into one buffer: each node is a
    one-character tag and its fields, a string is its decimal length,
    [':'] and its bytes, an integer is ['#'] and its decimal, and a list
    is its length, then its elements. Spans, spacing and comments do not
    count, so two parses of a text, or a program and its printed copy,
    fold alike. The [ifc-cert 2] format fixes these bytes: its [body:]
    lines carry {!module_digest} and its [linked:] line {!linked_digest}.
    Job keys fold the program and the rest of the spec into one buffer
    with the same writers. The [ifc-cert 1] program digest, MD5 of the
    printed program, is the one program digest not made here. *)

val decimal : Buffer.t -> int -> unit
(** An integer in decimal, written digit by digit, without
    [string_of_int]'s allocation. *)

val str : Buffer.t -> string -> unit
(** ["3:abc"]. *)

val program : Buffer.t -> Ast.program -> unit

val digest : Buffer.t -> string
(** MD5 of the buffer's contents, in lowercase hex. *)

val module_digest : Ast.module_unit -> string
(** The key summaries are stored and checked under. *)

val linked_digest : Ast.linked -> string
