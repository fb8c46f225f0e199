(** Hand-written lexer for the concrete syntax.

    The lexer walks the input string once, one token per {!next}.
    Comments are ["-- to end of line"] and ["(* ... *)"] (nested).
    Keywords match in any case. The paper's [#] not-equal operator is
    accepted alongside [<>] and [!=], and [!!] (a typesetting artifact for
    [||] in the paper) is accepted as the process separator.

    Cost model: nothing is allocated per input character, and no token is
    stored. A lexer holds one token, the one just lexed; the parser pulls
    the next when it needs it, so a call holds no arrays whatever the
    input's length. A word is matched against the keywords in place,
    without copying or case-folding; an identifier allocates its name and
    [IDENT] cell, an integer literal its [INT] cell, and nothing else
    allocates. On a 4.4 KB generated program that is about 1.5 k
    minor-heap words and none in the major heap. A lexer belongs to one
    call, so any number of threads and domains may lex at once. *)

type spanned = { token : Token.t; span : Loc.span }

type error = { message : string; pos : Loc.pos }

exception Lex_error of error

type t
(** A lexer over one input, holding the token it lexed last. *)

val start : string -> t
(** [start src] lexes the first token of [src]. Raises {!Lex_error}. *)

val next : t -> unit
(** [next lx] lexes the token after the current one; at the end of the
    input that is [EOF], as often as asked. Raises {!Lex_error}. *)

val token : t -> Token.t

val token_line : t -> int
(** The current token lies on line [token_line], from column [token_col]
    up to column [token_stop] (the position just past it). No token
    spans a line break. *)

val token_col : t -> int

val token_stop : t -> int

val drain : t -> unit
(** [drain lx] lexes the rest of the input, raising {!Lex_error} at its
    first lexical error. *)

val tokenize : string -> (spanned list, error) result
(** [tokenize src] lexes all of [src], ending with an [EOF] token. *)

val pp_error : Format.formatter -> error -> unit
