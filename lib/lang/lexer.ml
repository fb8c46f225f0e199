(* Hand-written lexer. See the interface for the accepted syntax and the
   cost model. *)

type spanned = { token : Token.t; span : Loc.span }

type error = { message : string; pos : Loc.pos }

let pp_error ppf e = Fmt.pf ppf "%a: %s" Loc.pp_pos e.pos e.message

exception Lex_error of error

(* One input and a cursor into it: the offset, the current line and the
   offset its first byte sits at (so a column is [offset - line_start +
   1]); and the token just lexed, with its line and the columns where it
   starts and stops. *)
type t = {
  src : string;
  len : int;
  mutable offset : int;
  mutable line : int;
  mutable line_start : int;
  mutable token : Token.t;
  mutable token_line : int;
  mutable token_col : int;
  mutable token_stop : int;
}

(* End of input reads as NUL; a real NUL byte is told apart by the
   offset wherever it matters. *)
let char_at st i = if i < st.len then String.unsafe_get st.src i else '\000'

let col st = st.offset - st.line_start + 1

let fail ~line ~col message = raise_notrace (Lex_error { message; pos = { Loc.line; col } })

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || is_digit c

(* Keywords grouped by length, compared in place and case-insensitively
   (every keyword is lower case). *)
let keywords_by_length =
  let longest = List.fold_left (fun m (k, _) -> max m (String.length k)) 0 Token.keywords in
  Array.init (longest + 1) (fun n ->
      Array.of_list (List.filter (fun (k, _) -> String.length k = n) Token.keywords))

(* [src] from [start] for [n] bytes matches lower-case keyword [k]. *)
let rec same_keyword src start n k j =
  j = n
  || Char.lowercase_ascii (String.unsafe_get src (start + j)) = String.unsafe_get k j
     && same_keyword src start n k (j + 1)

let rec find_keyword src start n candidates i =
  if i = Array.length candidates then Token.IDENT (String.sub src start n)
  else
    let k, token = candidates.(i) in
    if same_keyword src start n k 0 then token else find_keyword src start n candidates (i + 1)

let keyword_or_ident src start n =
  if n < Array.length keywords_by_length then find_keyword src start n keywords_by_length.(n) 0
  else Token.IDENT (String.sub src start n)

let newline st =
  st.offset <- st.offset + 1;
  st.line <- st.line + 1;
  st.line_start <- st.offset

(* A block comment from its opening "(*", nested; only an unterminated
   one is an error, reported where it opened. *)
let skip_block_comment st =
  let line = st.line and col = col st in
  st.offset <- st.offset + 2;
  let rec go depth =
    if st.offset >= st.len then fail ~line ~col "unterminated comment"
    else
      match String.unsafe_get st.src st.offset with
      | '*' when char_at st (st.offset + 1) = ')' ->
        st.offset <- st.offset + 2;
        if depth > 0 then go (depth - 1)
      | '(' when char_at st (st.offset + 1) = '*' ->
        st.offset <- st.offset + 2;
        go (depth + 1)
      | '\n' ->
        newline st;
        go depth
      | _ ->
        st.offset <- st.offset + 1;
        go depth
  in
  go 0

(* Whitespace and both comment forms. *)
let rec skip_trivia st =
  let src = st.src and len = st.len in
  let i = ref st.offset in
  while
    !i < len
    &&
    match String.unsafe_get src !i with ' ' | '\t' | '\r' -> true | _ -> false
  do
    incr i
  done;
  st.offset <- !i;
  if !i < len then
    match String.unsafe_get src !i with
    | '\n' ->
      newline st;
      skip_trivia st
    | '-' when char_at st (st.offset + 1) = '-' ->
      while st.offset < st.len && String.unsafe_get st.src st.offset <> '\n' do
        st.offset <- st.offset + 1
      done;
      skip_trivia st
    | '(' when char_at st (st.offset + 1) = '*' ->
      skip_block_comment st;
      skip_trivia st
    | _ -> ()

(* Digits accumulate with an overflow check, so a literal [int_of_string]
   rejects is rejected too, at the position after its digits. *)
let lex_number st =
  let start = st.offset in
  let src = st.src and len = st.len in
  let i = ref start and n = ref 0 and overflow = ref false in
  while !i < len && is_digit (String.unsafe_get src !i) do
    let d = Char.code (String.unsafe_get src !i) - 48 in
    if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
    incr i
  done;
  st.offset <- !i;
  if !overflow then
    fail ~line:st.line ~col:(col st)
      ("integer literal out of range: " ^ String.sub st.src start (st.offset - start));
  Token.INT !n

let lex_ident st =
  let start = st.offset in
  let src = st.src and len = st.len in
  let i = ref start in
  while !i < len && is_ident_char (String.unsafe_get src !i) do
    incr i
  done;
  st.offset <- !i;
  keyword_or_ident src start (!i - start)

let simple st n token =
  st.offset <- st.offset + n;
  token

(* The token at the cursor; trivia already skipped, input not empty. *)
let next_kind st ~line ~col =
  let next = char_at st (st.offset + 1) in
  match String.unsafe_get st.src st.offset with
  | '0' .. '9' -> lex_number st
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
  | ':' -> if next = '=' then simple st 2 Token.ASSIGN else simple st 1 Token.COLON
  | ';' -> simple st 1 Token.SEMI
  | ',' -> simple st 1 Token.COMMA
  | '(' -> simple st 1 Token.LPAREN
  | ')' -> simple st 1 Token.RPAREN
  | '[' -> simple st 1 Token.LBRACKET
  | ']' -> simple st 1 Token.RBRACKET
  | '|' -> if next = '|' then simple st 2 Token.PAR else fail ~line ~col "expected '||'"
  | '!' -> (
    match next with
    | '=' -> simple st 2 Token.NE
    | '!' -> simple st 2 Token.PAR (* the paper's rendering of || *)
    | _ -> fail ~line ~col "expected '!=' or '!!'")
  | '+' -> simple st 1 Token.PLUS
  | '-' -> simple st 1 Token.MINUS
  | '*' -> simple st 1 Token.STAR
  | '/' -> simple st 1 Token.SLASH
  | '%' -> simple st 1 Token.PERCENT
  | '=' -> simple st 1 Token.EQ
  | '#' -> simple st 1 Token.NE
  | '<' -> (
    match next with
    | '=' -> simple st 2 Token.LE
    | '>' -> simple st 2 Token.NE
    | _ -> simple st 1 Token.LT)
  | '>' -> if next = '=' then simple st 2 Token.GE else simple st 1 Token.GT
  | c -> fail ~line ~col (Printf.sprintf "unexpected character %C" c)

(* Lex the token after the cursor into [st.token]; at the end of the
   input that is [EOF], as often as asked. *)
let next st =
  skip_trivia st;
  let line = st.line and start = col st in
  let token = if st.offset >= st.len then Token.EOF else next_kind st ~line ~col:start in
  st.token <- token;
  st.token_line <- line;
  st.token_col <- start;
  st.token_stop <- col st

let start src =
  let st =
    {
      src;
      len = String.length src;
      offset = 0;
      line = 1;
      line_start = 0;
      token = Token.EOF;
      token_line = 1;
      token_col = 1;
      token_stop = 1;
    }
  in
  next st;
  st

let token st = st.token

let token_line st = st.token_line

let token_col st = st.token_col

let token_stop st = st.token_stop

let rec drain st =
  if st.token != Token.EOF then begin
    next st;
    drain st
  end

let tokenize src =
  let spanned st =
    let line = st.token_line in
    {
      token = st.token;
      span =
        Loc.make ~start:{ Loc.line; col = st.token_col } ~stop:{ Loc.line; col = st.token_stop };
    }
  in
  let rec go st acc =
    let acc = spanned st :: acc in
    if st.token == Token.EOF then List.rev acc
    else begin
      next st;
      go st acc
    end
  in
  match go (start src) [] with
  | tokens -> Ok tokens
  | exception Lex_error e -> Error e
