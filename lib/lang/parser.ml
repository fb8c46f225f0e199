(* Recursive-descent parser. See the interface for the grammar. *)

type error = { message : string; pos : Loc.pos }

let pp_error ppf e = Fmt.pf ppf "%a: %s" Loc.pp_pos e.pos e.message

exception Parse_error of error

(* The current token, copied from the lexer, and where the last token
   consumed stops. The lexer runs at most one token ahead: [ahead] says
   it holds the token after the current one. *)
type state = {
  lexer : Lexer.t;
  mutable token : Token.t;
  mutable line : int;
  mutable col : int;
  mutable stop : int;
  mutable ahead : bool;
  mutable last_line : int;
  mutable last_stop : int;
}

let load st =
  let lx = st.lexer in
  st.token <- Lexer.token lx;
  st.line <- Lexer.token_line lx;
  st.col <- Lexer.token_col lx;
  st.stop <- Lexer.token_stop lx

let peek st = st.token

(* [is st tok]: the current token is [tok], a constant constructor. *)
let is st tok = st.token == tok

(* The token after the current one. *)
let peek_next st =
  if st.token == Token.EOF then Token.EOF
  else begin
    if not st.ahead then begin
      Lexer.next st.lexer;
      st.ahead <- true
    end;
    Lexer.token st.lexer
  end

let here st = { Loc.line = st.line; col = st.col }

(* The cursor never moves past [EOF]. *)
let advance st =
  if st.token != Token.EOF then begin
    st.last_line <- st.line;
    st.last_stop <- st.stop;
    if st.ahead then st.ahead <- false else Lexer.next st.lexer;
    load st
  end

let fail st message = raise (Parse_error { message; pos = here st })

let expect st tok =
  if is st tok then advance st
  else
    fail st
      (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string tok)
         (Token.to_string (peek st)))

let expect_ident st what =
  match peek st with
  | Token.IDENT name ->
    advance st;
    name
  | other ->
    fail st (Printf.sprintf "expected %s but found '%s'" what (Token.to_string other))

let expect_int st what =
  match peek st with
  | Token.INT n ->
    advance st;
    n
  | other ->
    fail st (Printf.sprintf "expected %s but found '%s'" what (Token.to_string other))

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_or st =
  let left = parse_and st in
  if is st Token.KW_OR then begin
    advance st;
    Ast.Binop (Ast.Or, left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_not st in
  if is st Token.KW_AND then begin
    advance st;
    Ast.Binop (Ast.And, left, parse_and st)
  end
  else left

and parse_not st =
  if is st Token.KW_NOT then begin
    advance st;
    Ast.Unop (Ast.Not, parse_not st)
  end
  else parse_rel st

and parse_rel st =
  let left = parse_add st in
  let op =
    match peek st with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
    advance st;
    Ast.Binop (op, left, parse_add st)

and parse_add st = add_rest st (parse_mul st)

and add_rest st left =
  match peek st with
  | Token.PLUS ->
    advance st;
    add_rest st (Ast.Binop (Ast.Add, left, parse_mul st))
  | Token.MINUS ->
    advance st;
    add_rest st (Ast.Binop (Ast.Sub, left, parse_mul st))
  | _ -> left

and parse_mul st = mul_rest st (parse_unary st)

and mul_rest st left =
  match peek st with
  | Token.STAR ->
    advance st;
    mul_rest st (Ast.Binop (Ast.Mul, left, parse_unary st))
  | Token.SLASH ->
    advance st;
    mul_rest st (Ast.Binop (Ast.Div, left, parse_unary st))
  | Token.PERCENT ->
    advance st;
    mul_rest st (Ast.Binop (Ast.Mod, left, parse_unary st))
  | _ -> left

and parse_unary st =
  if is st Token.MINUS then begin
    advance st;
    Ast.Unop (Ast.Neg, parse_unary st)
  end
  else parse_atom st

and parse_atom st =
  match peek st with
  | Token.INT n ->
    advance st;
    Ast.Int n
  | Token.KW_TRUE ->
    advance st;
    Ast.Bool true
  | Token.KW_FALSE ->
    advance st;
    Ast.Bool false
  | Token.IDENT name ->
    advance st;
    if is st Token.LBRACKET then begin
      advance st;
      let i = parse_or st in
      expect st Token.RBRACKET;
      Ast.Index (name, i)
    end
    else Ast.Var name
  | Token.LPAREN ->
    advance st;
    let e = parse_or st in
    expect st Token.RPAREN;
    e
  | other ->
    fail st (Printf.sprintf "expected an expression but found '%s'" (Token.to_string other))

let parse_expression st = parse_or st

(* ------------------------------------------------------------------ *)
(* Statements *)

(* A statement spans from its first token's start to its last token's
   stop. *)
let finish st start node =
  let stop = { Loc.line = st.last_line; col = st.last_stop } in
  { Ast.span = Loc.make ~start ~stop; node }

let rec parse_statement st =
  let start = here st in
  match peek st with
  | Token.KW_SKIP ->
    advance st;
    finish st start Ast.Skip
  | Token.IDENT name ->
    advance st;
    if is st Token.LBRACKET then begin
      advance st;
      let i = parse_expression st in
      expect st Token.RBRACKET;
      expect st Token.ASSIGN;
      let e = parse_expression st in
      finish st start (Ast.Store (name, i, e))
    end
    else begin
      expect st Token.ASSIGN;
      if is st Token.KW_DECLASSIFY then begin
        advance st;
        let e = parse_expression st in
        expect st Token.KW_TO;
        let cls = expect_ident st "a class name" in
        finish st start (Ast.Declassify (name, e, cls))
      end
      else begin
        let e = parse_expression st in
        finish st start (Ast.Assign (name, e))
      end
    end
  | Token.KW_IF ->
    advance st;
    let cond = parse_expression st in
    expect st Token.KW_THEN;
    let then_ = parse_statement st in
    let else_ =
      if is st Token.KW_ELSE then begin
        advance st;
        parse_statement st
      end
      else Ast.skip
    in
    if is st Token.KW_FI then advance st;
    finish st start (Ast.If (cond, then_, else_))
  | Token.KW_WHILE ->
    advance st;
    let cond = parse_expression st in
    expect st Token.KW_DO;
    let body = parse_statement st in
    if is st Token.KW_OD then advance st;
    finish st start (Ast.While (cond, body))
  | Token.KW_BEGIN ->
    advance st;
    let stmts = parse_separated st Token.SEMI in
    expect st Token.KW_END;
    finish st start (Ast.Seq stmts)
  | Token.KW_COBEGIN ->
    advance st;
    let branches = parse_separated st Token.PAR in
    expect st Token.KW_COEND;
    finish st start (Ast.Cobegin branches)
  | Token.KW_WAIT ->
    advance st;
    expect st Token.LPAREN;
    let sem = expect_ident st "a semaphore name" in
    expect st Token.RPAREN;
    finish st start (Ast.Wait sem)
  | Token.KW_SIGNAL ->
    advance st;
    expect st Token.LPAREN;
    let sem = expect_ident st "a semaphore name" in
    expect st Token.RPAREN;
    finish st start (Ast.Signal sem)
  | Token.KW_SEND ->
    advance st;
    expect st Token.LPAREN;
    let chan = expect_ident st "a channel name" in
    expect st Token.COMMA;
    let e = parse_expression st in
    expect st Token.RPAREN;
    finish st start (Ast.Send (chan, e))
  | Token.KW_RECV ->
    advance st;
    expect st Token.LPAREN;
    let chan = expect_ident st "a channel name" in
    expect st Token.COMMA;
    let x = expect_ident st "a variable name" in
    expect st Token.RPAREN;
    finish st start (Ast.Recv (chan, x))
  | other ->
    fail st (Printf.sprintf "expected a statement but found '%s'" (Token.to_string other))

and parse_separated st sep =
  let first = parse_statement st in
  if is st sep then begin
    advance st;
    first :: parse_separated st sep
  end
  else [ first ]

(* ------------------------------------------------------------------ *)
(* Declarations *)

(* After 'var', groups look like "x, y : integer;". A group is recognised
   by an identifier followed by ',' or ':' — an identifier followed by ':='
   starts the program body instead. *)
let looks_like_group st =
  match peek st with
  | Token.IDENT _ -> ( match peek_next st with Token.COMMA | Token.COLON -> true | _ -> false)
  | _ -> false

let parse_class_annotation st =
  if is st Token.KW_CLASS then begin
    advance st;
    Some (expect_ident st "a class name")
  end
  else None

let rec parse_names st =
  let name = expect_ident st "a variable name" in
  if is st Token.COMMA then begin
    advance st;
    name :: parse_names st
  end
  else [ name ]

let parse_group st =
  let names = parse_names st in
  expect st Token.COLON;
  match peek st with
  | Token.KW_INTEGER ->
    advance st;
    let cls = parse_class_annotation st in
    List.map (fun name -> Ast.Var_decl { name; cls }) names
  | Token.KW_ARRAY ->
    advance st;
    expect st Token.LPAREN;
    let size = expect_int st "an array size" in
    expect st Token.RPAREN;
    let cls = parse_class_annotation st in
    List.map (fun name -> Ast.Arr_decl { name; size; cls }) names
  | Token.KW_SEMAPHORE ->
    advance st;
    expect st Token.KW_INITIALLY;
    expect st Token.LPAREN;
    let init = expect_int st "an initial semaphore count" in
    expect st Token.RPAREN;
    let cls = parse_class_annotation st in
    List.map (fun name -> Ast.Sem_decl { name; init; cls }) names
  | Token.KW_CHANNEL ->
    advance st;
    expect st Token.LPAREN;
    let cap = expect_int st "a channel capacity" in
    expect st Token.RPAREN;
    let cls = parse_class_annotation st in
    List.map (fun name -> Ast.Chan_decl { name; cap; cls }) names
  | other ->
    fail st
      (Printf.sprintf
         "expected 'integer', 'array', 'semaphore' or 'channel' but found '%s'"
         (Token.to_string other))

let rec parse_groups st =
  let group = parse_group st in
  expect st Token.SEMI;
  if looks_like_group st then group @ parse_groups st else group

let parse_decls st =
  if is st Token.KW_VAR then begin
    advance st;
    parse_groups st
  end
  else []

(* ------------------------------------------------------------------ *)
(* Modules *)

(* 'provides (x : class <= k, ...)' / 'requires (y : class >= k, ...)'.
   The bound direction is part of the syntax: exports carry upper bounds
   (readers may assume at most [k]), imports carry lower bounds (the
   linker must supply at least [k]) — using the wrong relation is a parse
   error, not a silent reinterpretation. *)
let parse_iface_entries st ~bound =
  expect st Token.LPAREN;
  let entry () =
    let iv_name = expect_ident st "a variable name" in
    expect st Token.COLON;
    expect st Token.KW_CLASS;
    expect st bound;
    let iv_class = expect_ident st "a class name" in
    { Ast.iv_name; iv_class }
  in
  let rec loop acc =
    let e = entry () in
    if is st Token.COMMA then begin
      advance st;
      loop (e :: acc)
    end
    else List.rev (e :: acc)
  in
  let entries = loop [] in
  expect st Token.RPAREN;
  entries

let parse_module_unit st =
  expect st Token.KW_MODULE;
  let m_name = expect_ident st "a module name" in
  let provides =
    if is st Token.KW_PROVIDES then begin
      advance st;
      parse_iface_entries st ~bound:Token.LE
    end
    else []
  in
  let requires =
    if is st Token.KW_REQUIRES then begin
      advance st;
      parse_iface_entries st ~bound:Token.GE
    end
    else []
  in
  let m_decls = parse_decls st in
  let m_body = parse_statement st in
  expect st Token.KW_END;
  { Ast.iface = { Ast.m_name; provides; requires }; m_decls; m_body }

let parse_linked_unit st =
  let rec modules acc =
    if is st Token.KW_MODULE then modules (parse_module_unit st :: acc)
    else List.rev acc
  in
  let modules = modules [] in
  let main =
    if is st Token.EOF then None
    else begin
      let decls = parse_decls st in
      let body = parse_statement st in
      Some { Ast.decls; body }
    end
  in
  { Ast.modules; main }

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* Tokens are lexed as the parser asks for them, but a lexical error
   anywhere in the input is reported before any syntax error, as if the
   whole input were lexed first: a syntax error lexes the rest of the
   input before it is reported. *)
let run src entry =
  match
    let lexer = Lexer.start src in
    let st =
      {
        lexer;
        token = Lexer.token lexer;
        line = Lexer.token_line lexer;
        col = Lexer.token_col lexer;
        stop = Lexer.token_stop lexer;
        ahead = false;
        last_line = Lexer.token_line lexer;
        last_stop = Lexer.token_stop lexer;
      }
    in
    match entry st with
    | result ->
      if is st Token.EOF then Ok result
      else begin
        let e =
          {
            message = Printf.sprintf "trailing input starting at '%s'" (Token.to_string st.token);
            pos = here st;
          }
        in
        Lexer.drain lexer;
        Error e
      end
    | exception Parse_error e ->
      Lexer.drain lexer;
      Error e
  with
  | result -> result
  | exception Lexer.Lex_error e -> Error { message = e.Lexer.message; pos = e.Lexer.pos }

let parse_program src =
  run src (fun st ->
      let decls = parse_decls st in
      let body = parse_statement st in
      { Ast.decls; body })

let parse_stmt src = run src parse_statement

let parse_expr src = run src parse_expression

let parse_linked src = run src parse_linked_unit

(* Cheap syntactic dispatch for loaders that accept either form: a linked
   unit begins with the 'module' keyword (possibly after whitespace and
   comments, which the lexer strips). *)
let looks_linked src =
  match
    let lexer = Lexer.start src in
    Lexer.token lexer == Token.KW_MODULE
    && begin
         Lexer.drain lexer;
         true
       end
  with
  | linked -> linked
  | exception Lexer.Lex_error _ -> false
