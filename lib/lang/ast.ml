(** Abstract syntax of the paper's parallel programming language (§2).

    The statement forms are exactly those of the paper — assignment,
    alternation, iteration, composition, concurrency ([cobegin .. || ..
    coend]) and semaphore synchronization ([wait]/[signal]) — plus [skip],
    which the paper omits but which makes [if]-without-[else] and program
    generation natural. [skip] modifies nothing and produces no flow, so it
    is certification-neutral (see DESIGN.md §3).

    Expressions are integer/boolean arithmetic over program variables; the
    class of [e1 op e2] is [class e1 ⊕ class e2] regardless of [op]
    (Definition 2), so the analysis never inspects operators.

    This module also provides combinators ([assign], [if_], [seq], ...)
    used by examples and tests to build programs without going through the
    parser. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not

type expr =
  | Int of int
  | Bool of bool
  | Var of string
  | Index of string * expr  (** [a\[i\]]: array read. *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type stmt = { span : Loc.span; node : node }

and node =
  | Skip
  | Assign of string * expr
  | Declassify of string * expr * string
      (** [x := declassify e to c]: like [Assign], but the analyses take
          the *data* class of [e] to be the named class [c] instead of its
          computed class. Contexts ([local]/[global]) still apply — the
          escape hatch releases data, not control. An extension beyond the
          paper; see DESIGN.md. *)
  | Store of string * expr * expr  (** [a\[i\] := e]: array write. The whole
      array is the classified object (Denning's treatment): the index
      contributes to the stored class and writes are weak updates. *)
  | If of expr * stmt * stmt
  | While of expr * stmt
  | Seq of stmt list
  | Cobegin of stmt list
  | Wait of string
  | Signal of string
  | Send of string * expr
      (** [send(c, e)]: blocking send of [e] on channel [c]. Blocks while
          the channel holds [cap] undelivered messages. Flow-wise a [send]
          is an assignment into the channel (the payload's class must flow
          to the channel's class) that also signals: it can unblock a
          [recv], so the channel's class joins the receiver's [global]. *)
  | Recv of string * string
      (** [recv(c, x)]: blocking receive from channel [c] into variable
          [x]. Blocks on an empty channel — a [wait] whose class is the
          channel's — then assigns the delivered message to [x]. *)

(** Declarations: integer variables and semaphores with an initial count.
    [cls] is an optional class annotation (resolved against a lattice by
    [Ifc_core.Binding]). Channels carry a capacity: the number of sent but
    not yet received messages a [send] tolerates before blocking. *)
type decl =
  | Var_decl of { name : string; cls : string option }
  | Arr_decl of { name : string; size : int; cls : string option }
  | Sem_decl of { name : string; init : int; cls : string option }
  | Chan_decl of { name : string; cap : int; cls : string option }

type program = { decls : decl list; body : stmt }

(** Module interfaces (compositional certification). A module names the
    variables it exports with an upper class bound ([provides (x : class
    <= k)]: readers may assume [cls(x) <= k]) and the variables it
    imports with a lower class bound ([requires (y : class >= k')]: the
    linker must supply [y] at class at least [k']). Bounds are class
    {e names}, resolved against a lattice by the module system — the
    syntax layer stays scheme-agnostic, exactly like [decl] class
    annotations. *)
type iface_entry = { iv_name : string; iv_class : string }

type iface = {
  m_name : string;
  provides : iface_entry list;
  requires : iface_entry list;
}

(** A module: its interface, its own declarations and its body. Imports
    ([requires]) are deliberately {e not} declared — they resolve at link
    time against another module's export or the main program's
    declarations. *)
type module_unit = { iface : iface; m_decls : decl list; m_body : stmt }

(** A linked compilation unit: modules followed by an optional main
    program. Its execution (and whole-program certification reference)
    is the {e elaboration}: all declarations merged, bodies composed
    sequentially — see [Ifc_modsys.Link.elaborate]. *)
type linked = { modules : module_unit list; main : program option }

(* ------------------------------------------------------------------ *)
(* Combinators *)

let mk ?(span = Loc.dummy) node = { span; node }

let skip = mk Skip

let assign ?span x e = mk ?span (Assign (x, e))

let store ?span a i e = mk ?span (Store (a, i, e))

let declassify ?span x e cls = mk ?span (Declassify (x, e, cls))

let if_ ?span cond ~then_ ~else_ = mk ?span (If (cond, then_, else_))

let if_then ?span cond then_ = mk ?span (If (cond, then_, skip))

let while_ ?span cond body = mk ?span (While (cond, body))

let seq ?span stmts = mk ?span (Seq stmts)

let cobegin ?span branches = mk ?span (Cobegin branches)

let wait ?span sem = mk ?span (Wait sem)

let signal ?span sem = mk ?span (Signal sem)

let send ?span chan e = mk ?span (Send (chan, e))

let recv ?span chan x = mk ?span (Recv (chan, x))

let var x = Var x

let int n = Int n

(** Infix expression builders; open locally ([Ast.Infix.(var "x" + int 1)])
    to keep the arithmetic operators from shadowing the standard ones. *)
module Infix = struct
  let ( + ) a b = Binop (Add, a, b)

  let ( - ) a b = Binop (Sub, a, b)

  let ( * ) a b = Binop (Mul, a, b)

  let ( = ) a b = Binop (Eq, a, b)

  let ( <> ) a b = Binop (Ne, a, b)

  let ( < ) a b = Binop (Lt, a, b)

  let ( > ) a b = Binop (Gt, a, b)

  let ( && ) a b = Binop (And, a, b)

  let ( || ) a b = Binop (Or, a, b)
end

(** [program ?decls body] packs a program; undeclared variables can be
    added later by {!Wellformed.infer_decls}. *)
let program ?(decls = []) body = { decls; body }

(** [children s] is [s]'s immediate sub-statements, in order: the two
    arms of an [if], a loop body, the components of a block or
    [cobegin], and none for the other forms. Post-order passes such as
    Figure 2's fold recurse through it. *)
let children s =
  match s.node with
  | Skip | Assign _ | Declassify _ | Store _ | Wait _ | Signal _ | Send _ | Recv _ -> []
  | If (_, then_, else_) -> [ then_; else_ ]
  | While (_, body) -> [ body ]
  | Seq ss | Cobegin ss -> ss

(* ------------------------------------------------------------------ *)
(* Structural equality and size, ignoring spans. *)

let rec equal_expr a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Var x, Var y -> String.equal x y
  | Index (x, i), Index (y, j) -> String.equal x y && equal_expr i j
  | Unop (op1, e1), Unop (op2, e2) -> Stdlib.( = ) op1 op2 && equal_expr e1 e2
  | Binop (op1, a1, b1), Binop (op2, a2, b2) ->
    Stdlib.( = ) op1 op2 && equal_expr a1 a2 && equal_expr b1 b2
  | (Int _ | Bool _ | Var _ | Index _ | Unop _ | Binop _), _ -> false

let rec equal_stmt s1 s2 =
  match (s1.node, s2.node) with
  | Skip, Skip -> true
  | Assign (x1, e1), Assign (x2, e2) -> String.equal x1 x2 && equal_expr e1 e2
  | Declassify (x1, e1, c1), Declassify (x2, e2, c2) ->
    String.equal x1 x2 && equal_expr e1 e2 && String.equal c1 c2
  | Store (a1, i1, e1), Store (a2, i2, e2) ->
    String.equal a1 a2 && equal_expr i1 i2 && equal_expr e1 e2
  | If (c1, t1, f1), If (c2, t2, f2) ->
    equal_expr c1 c2 && equal_stmt t1 t2 && equal_stmt f1 f2
  | While (c1, b1), While (c2, b2) -> equal_expr c1 c2 && equal_stmt b1 b2
  | Seq l1, Seq l2 | Cobegin l1, Cobegin l2 ->
    List.length l1 = List.length l2 && List.for_all2 equal_stmt l1 l2
  | Wait s1, Wait s2 | Signal s1, Signal s2 -> String.equal s1 s2
  | Send (c1, e1), Send (c2, e2) -> String.equal c1 c2 && equal_expr e1 e2
  | Recv (c1, x1), Recv (c2, x2) -> String.equal c1 c2 && String.equal x1 x2
  | ( ( Skip | Assign _ | Declassify _ | Store _ | If _ | While _ | Seq _ | Cobegin _
      | Wait _ | Signal _ | Send _ | Recv _ ),
      _ ) ->
    false

let equal_decl d1 d2 =
  match (d1, d2) with
  | Var_decl a, Var_decl b -> String.equal a.name b.name && Stdlib.( = ) a.cls b.cls
  | Arr_decl a, Arr_decl b ->
    String.equal a.name b.name && Int.equal a.size b.size && Stdlib.( = ) a.cls b.cls
  | Sem_decl a, Sem_decl b ->
    String.equal a.name b.name && Int.equal a.init b.init && Stdlib.( = ) a.cls b.cls
  | Chan_decl a, Chan_decl b ->
    String.equal a.name b.name && Int.equal a.cap b.cap && Stdlib.( = ) a.cls b.cls
  | (Var_decl _ | Arr_decl _ | Sem_decl _ | Chan_decl _), _ -> false

let equal_program p1 p2 =
  List.length p1.decls = List.length p2.decls
  && List.for_all2 equal_decl p1.decls p2.decls
  && equal_stmt p1.body p2.body

let equal_iface_entry a b =
  String.equal a.iv_name b.iv_name && String.equal a.iv_class b.iv_class

let equal_iface a b =
  String.equal a.m_name b.m_name
  && List.length a.provides = List.length b.provides
  && List.for_all2 equal_iface_entry a.provides b.provides
  && List.length a.requires = List.length b.requires
  && List.for_all2 equal_iface_entry a.requires b.requires

let equal_module_unit a b =
  equal_iface a.iface b.iface
  && List.length a.m_decls = List.length b.m_decls
  && List.for_all2 equal_decl a.m_decls b.m_decls
  && equal_stmt a.m_body b.m_body

let equal_linked a b =
  List.length a.modules = List.length b.modules
  && List.for_all2 equal_module_unit a.modules b.modules
  && Option.equal equal_program a.main b.main

(** [module_program m] views a module's own declarations and body as an
    ordinary program — the unit summarization walks and component
    certificates are emitted against. *)
let module_program m = { decls = m.m_decls; body = m.m_body }
