(* Flow-sensitive certification: forward abstract interpretation over the
   information state. See the interface for the design and the
   concurrency degradation rule. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Smap = Ifc_support.Smap
module Sset = Ifc_support.Sset
module Ast = Ifc_lang.Ast

type 'a state = { classes : 'a Smap.t; global : 'a }

type 'a result = {
  accepted : bool;
  final : 'a state;
  violations : (string * 'a) list;
}

let rec expr_class (l : 'a Lattice.t) classes = function
  | Ast.Int _ | Ast.Bool _ -> l.Lattice.bottom
  | Ast.Var x -> Smap.find_or ~default:l.Lattice.bottom x classes
  | Ast.Index (a, i) ->
    l.Lattice.join
      (Smap.find_or ~default:l.Lattice.bottom a classes)
      (expr_class l classes i)
  | Ast.Unop (_, e) -> expr_class l classes e
  | Ast.Binop (_, a, b) ->
    l.Lattice.join (expr_class l classes a) (expr_class l classes b)

let join_states (l : 'a Lattice.t) a b =
  {
    classes =
      Smap.union (fun _ x y -> Some (l.Lattice.join x y)) a.classes b.classes;
    global = l.Lattice.join a.global b.global;
  }

let state_equal (l : 'a Lattice.t) a b =
  l.Lattice.equal a.global b.global && Smap.equal l.Lattice.equal a.classes b.classes

let analyze binding stmt =
  let l = Binding.lattice binding in
  let join = l.Lattice.join in
  let alg = Cfm.algebra binding in
  let ok = ref true in
  (* The conservative cobegin rule: every read must currently be at or
     below its binding, the context must be bounded by the statement's
     mod, and the statement itself must pass CFM; afterwards modified
     variables sit at their bindings and the global class absorbs the
     statement's flow. *)
  let enter_cobegin ~pc st (s : Ast.stmt) =
    let reads = Ifc_lang.Vars.read s in
    let entry_ok =
      Sset.for_all
        (fun v ->
          l.Lattice.leq
            (Smap.find_or ~default:l.Lattice.bottom v st.classes)
            (Binding.sbind binding v))
        reads
    in
    let cfm = Cfm.fold alg ~self_check:false s in
    let context_ok = l.Lattice.leq (join pc st.global) cfm.Cfm.mod_ in
    if not (entry_ok && context_ok && cfm.Cfm.cert) then ok := false;
    let classes =
      Sset.fold
        (fun v classes -> Smap.add v (Binding.sbind binding v) classes)
        (Ifc_lang.Vars.modified s) st.classes
    in
    let flow = Extended.get ~default:l.Lattice.bottom cfm.Cfm.flow in
    { classes; global = join st.global flow }
  in
  let rec go ~pc st (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Skip -> st
    | Ast.Assign (x, e) ->
      let c = join (expr_class l st.classes e) (join pc st.global) in
      { st with classes = Smap.add x c st.classes }
    | Ast.Declassify (x, _, cls) ->
      (* Data declassified to the named class; context still applies. *)
      let named =
        match l.Lattice.of_string cls with Ok c -> c | Error _ -> l.Lattice.top
      in
      let c = join named (join pc st.global) in
      { st with classes = Smap.add x c st.classes }
    | Ast.Store (a, i, e) ->
      (* Weak update: other slots keep their information, so the array's
         class only grows; the index joins in (which slot changed is
         information). *)
      let stored =
        join (expr_class l st.classes i)
          (join (expr_class l st.classes e) (join pc st.global))
      in
      let old = Smap.find_or ~default:l.Lattice.bottom a st.classes in
      { st with classes = Smap.add a (join old stored) st.classes }
    | Ast.If (cond, then_, else_) ->
      let c = expr_class l st.classes cond in
      let pc' = join pc c in
      join_states l (go ~pc:pc' st then_) (go ~pc:pc' st else_)
    | Ast.While (cond, body) ->
      (* Kleene iteration; monotone over a finite lattice, so it
         terminates. Entering the loop is a conditional-termination event:
         global absorbs the condition's (current) class. *)
      let rec fix st =
        let c = expr_class l st.classes cond in
        let st = { st with global = join st.global (join pc c) } in
        let st' = go ~pc:(join pc c) st body in
        let merged = join_states l st st' in
        if state_equal l merged st then st else fix merged
      in
      fix st
    | Ast.Seq stmts -> List.fold_left (fun st s' -> go ~pc st s') st stmts
    | Ast.Wait sem ->
      let sem_c = Smap.find_or ~default:l.Lattice.bottom sem st.classes in
      let global = join st.global (join pc sem_c) in
      { classes = Smap.add sem (join sem_c (join pc global)) st.classes; global }
    | Ast.Signal sem ->
      let sem_c = Smap.find_or ~default:l.Lattice.bottom sem st.classes in
      { st with classes = Smap.add sem (join sem_c (join pc st.global)) st.classes }
    | Ast.Send (chan, e) ->
      (* Signal-like, plus the payload joins the channel's class. *)
      let chan_c = Smap.find_or ~default:l.Lattice.bottom chan st.classes in
      let stored = join (expr_class l st.classes e) (join pc st.global) in
      { st with classes = Smap.add chan (join chan_c stored) st.classes }
    | Ast.Recv (chan, x) ->
      (* Wait-like — the conditional delay raises global by the channel's
         class — followed by the delivered message landing in x. *)
      let chan_c = Smap.find_or ~default:l.Lattice.bottom chan st.classes in
      let global = join st.global (join pc chan_c) in
      let delivered = join chan_c (join pc global) in
      {
        classes = Smap.add x delivered (Smap.add chan delivered st.classes);
        global;
      }
    | Ast.Cobegin _ -> enter_cobegin ~pc st s
  in
  let init =
    {
      classes =
        Sset.fold
          (fun v m -> Smap.add v (Binding.sbind binding v) m)
          (Ifc_lang.Vars.all_vars stmt) Smap.empty;
      global = l.Lattice.bottom;
    }
  in
  let final = go ~pc:l.Lattice.bottom init stmt in
  let violations =
    Smap.fold
      (fun v c acc ->
        if l.Lattice.leq c (Binding.sbind binding v) then acc else (v, c) :: acc)
      final.classes []
  in
  { accepted = !ok && violations = []; final; violations = List.rev violations }

let certified binding stmt = (analyze binding stmt).accepted

let certified_program binding (p : Ast.program) = certified binding p.body
