(** The Concurrent Flow Mechanism (paper §4.2, Figure 2).

    For a statement [S] and a static binding, CFM computes:

    - [mod S] — the greatest lower bound of the bindings of variables
      potentially modified by [S] (Definition 5a);
    - [flow S] — the least upper bound of the global flows produced by [S],
      valued in the extended scheme with [nil] meaning "no global flow"
      (Definition 5b);
    - [cert S] — whether [S] specifies no flow violating the binding
      (Definition 5c),

    by a single post-order pass, hence in time linear in the program length
    (the paper's §6 complexity claim; see the scaling benchmarks).

    Figure 2 is written once, as {!combine}: one construct's summary from
    its children's, over a class {!algebra}. {!fold} is the post-order
    pass. It has two instances:

    - the concrete one ({!algebra}), whose classes are a binding's and
      whose checks are decided on the spot — CFM itself: {!analyze}
      records each check as it decides it, and {!certified}, {!mod_of}
      and {!flow_of} project the fold's summary;
    - a symbolic one whose classes mention the unknown classes of a
      module's imports ([Ifc_modsys.Summary]): a check between concrete
      classes is decided, and any other becomes a residual constraint.

    [Infer] keeps its own walk: it emits each component's constraint
    before visiting the next component, and reports the first violated
    constraint in that order.

    [analyze] retains every individual certification check so reports can
    say exactly which constraint failed and where; [certified] is the bare
    boolean for hot paths.

    The composition rule is implemented with the [j < i] reading of
    Figure 2's side condition (matching the appendix proofs); pass
    [~self_check:true] for the literal [j <= i] reading, which additionally
    requires each statement's own global flow to be bounded by its own
    [mod]. See DESIGN.md §3. *)

module Extended = Ifc_lattice.Extended

(** One primitive certification check: [lhs <= rhs] in the extended
    scheme, with enough context to render a diagnostic. *)
type 'a check = {
  span : Ifc_lang.Loc.span;  (** The statement that required the check. *)
  rule : rule;  (** Which Figure 2 clause produced it. *)
  lhs : 'a Extended.elt;
  rhs : 'a;
  ok : bool;
}

and rule =
  | Assign_direct  (** [sbind(e) <= sbind(x)]. *)
  | Declassify_direct
      (** [C <= sbind(x)] for [x := declassify e to C]: the named class
          stands in for [sbind(e)]. Unresolvable class names fail as the
          lattice top. *)
  | Store_direct
      (** [sbind(i) (+) sbind(e) <= sbind(a)] for [a\[i\] := e]: the index
          flows into the array — which slot changed is information
          (Denning & Denning's array treatment). *)
  | Send_direct
      (** [sbind(e) <= sbind(c)] for [send(c, e)]: the payload flows into
          the channel. A send is otherwise signal-like — [mod] is
          [sbind(c)], so the surrounding context checks bound every
          potential sender's global flow by the channel's class. *)
  | Recv_direct
      (** [sbind(c) <= sbind(x)] for [recv(c, x)]: the delivered message
          (whose class the send rule capped at [sbind(c)]) flows into [x].
          A recv is otherwise wait-like — its conditional delay is a
          global flow of the channel's class. *)
  | If_local  (** [sbind(e) <= mod(S)]. *)
  | While_global  (** [flow(S) <= mod(S1)]. *)
  | Seq_global of int
      (** [i]: [(+)_(j<i) flow(Sj) <= mod(Si)], 0-based — the prefix-join
          form of Figure 2's pairwise [flow(Sj) <= mod(Si)] conditions,
          equivalent because a join is below a class iff every joinand is,
          and linear instead of quadratic in the block length. *)

(** A class algebra: what Figure 2 needs of its classes. ['c] is a
    join-form source class, ['m] a meet-form [mod]; the two coincide for
    concrete classes and differ for symbolic ones. *)
type ('c, 'm) algebra = {
  bottom : 'c;  (** The class of a constant. *)
  top : 'm;  (** The [mod] of a statement that modifies nothing. *)
  src : string -> 'c;  (** A variable read as a source. *)
  dst : string -> 'm;  (** A variable written as a target. *)
  named : string -> 'c;
      (** The class a [declassify] names; top when it names no class. *)
  join : 'c -> 'c -> 'c;
  meet : 'm -> 'm -> 'm;
  check : Ifc_lang.Loc.span -> rule -> 'c Extended.elt -> 'm -> bool;
      (** [check span rule lhs rhs] decides the obligation [lhs <= rhs]
          (or records it) and says whether it holds. Every check runs
          before its outcome is conjoined into [cert], in evaluation
          order: a node's children first, then the node's own checks,
          and a block's checks after all its components. *)
}

(** Definition 5's three functions of one statement. *)
type ('c, 'm) summary = { mod_ : 'm; flow : 'c Extended.elt; cert : bool }

(** The result of analysing one statement (Definition 5's three
    functions, plus the full check list in evaluation order). *)
type 'a result = {
  certified : bool;
  mod_ : 'a;
  flow : 'a Extended.elt;
  checks : 'a check list;
}

val rule_name : rule -> string

val combine :
  ('c, 'm) algebra ->
  self_check:bool ->
  Ifc_lang.Ast.stmt ->
  ('c, 'm) summary list ->
  ('c, 'm) summary
(** [combine alg ~self_check s kids] is Figure 2's row for [s], given the
    summaries of [s]'s children ({!Ifc_lang.Ast.children}) in order.
    Raises [Invalid_argument] when [kids] does not match [s]'s shape. *)

val fold :
  ('c, 'm) algebra -> self_check:bool -> Ifc_lang.Ast.stmt -> ('c, 'm) summary
(** [fold alg ~self_check s] is the post-order pass: {!combine} at every
    node, children first. *)

val algebra : 'a Binding.t -> ('a, 'a) algebra
(** The concrete algebra of a binding: its classes and lattice, with
    each check decided by {!check_outcome}. *)

val check_outcome : 'a Ifc_lattice.Lattice.t -> 'a Extended.elt -> 'a -> bool
(** [check_outcome l lhs rhs] decides [lhs <= rhs] with [lhs] in the
    extended scheme ([Nil] always passes). Shared with {!Denning}. *)

val analyze :
  ?self_check:bool ->
  'a Binding.t ->
  Ifc_lang.Ast.stmt ->
  'a result
(** [analyze b s] runs CFM on [s] under binding [b]. *)

val certified : ?self_check:bool -> 'a Binding.t -> Ifc_lang.Ast.stmt -> bool
(** [certified b s] is [cert(S)] alone — no check list is accumulated, so
    this is the function to benchmark and to call in search loops. Like
    {!mod_of} and {!flow_of}, it projects {!fold}'s summary; call
    {!fold} directly to get all three from one pass. *)

val mod_of : 'a Binding.t -> Ifc_lang.Ast.stmt -> 'a
(** [mod_of b s] is Definition 5a's [mod(S)]. For a statement modifying
    nothing (e.g. [skip]) it is the lattice top: every flow into "nothing"
    is acceptable. *)

val flow_of : 'a Binding.t -> Ifc_lang.Ast.stmt -> 'a Extended.elt
(** [flow_of b s] is Definition 5b's [flow(S)]. *)

val failed_checks : 'a result -> 'a check list

val analyze_program :
  ?self_check:bool -> 'a Binding.t -> Ifc_lang.Ast.program -> 'a result
(** [analyze_program b p] analyses the body of [p]. *)
