(* Figure 2's outputs, pinned. Three outputs come from the paper's
   mod/flow/cert table: CFM's full report (both readings of the
   composition rule), the concrete fold's summary, and the symbolic
   module summaries behind compositional certification. One MD5 over
   all three, on a few hundred generated programs across schemes and
   generator configs, catches any change to any of them. *)

module Lattice = Ifc_lattice.Lattice
module Builtin = Ifc_lattice.Builtin
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Gen = Ifc_lang.Gen
module Vars = Ifc_lang.Vars
module Prng = Ifc_support.Prng
module Sset = Ifc_support.Sset
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Report = Ifc_core.Report
module Linked = Ifc_cert.Linked
module Summary = Ifc_modsys.Summary

let scheme name =
  match Builtin.find name with Some l -> l | None -> Alcotest.failf "no scheme %s" name

let configs =
  [
    ("default", Gen.default);
    ("with_arrays", Gen.with_arrays);
    ("with_channels", Gen.with_channels);
    ("sequential", Gen.sequential);
  ]

let pick rng xs = List.nth xs (Prng.int rng (List.length xs))

(* The generator never emits [declassify]; turn about one assignment in
   four into one, naming a random class or (rarely) no class at all, so
   the named-class rule and its top fallback are covered too. *)
let rec with_declassify rng lattice (s : Ast.stmt) =
  let sub = with_declassify rng lattice in
  let node =
    match s.node with
    | Ast.Assign (x, e) when Prng.int rng 4 = 0 ->
      let cls =
        if Prng.int rng 8 = 0 then "nonsense"
        else lattice.Lattice.to_string (pick rng lattice.Lattice.elements)
      in
      Ast.Declassify (x, e, cls)
    | Ast.If (c, a, b) -> Ast.If (c, sub a, sub b)
    | Ast.While (c, b) -> Ast.While (c, sub b)
    | Ast.Seq ss -> Ast.Seq (List.map sub ss)
    | Ast.Cobegin ss -> Ast.Cobegin (List.map sub ss)
    | n -> n
  in
  { s with node }

let pp_flow lattice = function
  | Extended.Nil -> "nil"
  | Extended.El f -> lattice.Lattice.to_string f

(* Every third variable (in name order) is an import; the rest are
   locals declared at their bound class. *)
let as_module lattice classes (body : Ast.stmt) =
  let vars = Sset.elements (Vars.all_vars body) in
  let imports = List.filteri (fun i _ -> i mod 3 = 0) vars in
  let is_import v = List.mem v imports in
  {
    Ast.iface =
      {
        Ast.m_name = "m";
        provides = [];
        requires =
          List.map
            (fun v ->
              { Ast.iv_name = v; iv_class = lattice.Lattice.to_string lattice.Lattice.bottom })
            imports;
      };
    m_decls =
      List.filter_map
        (fun v ->
          if is_import v then None
          else
            Some
              (Ast.Var_decl
                 { name = v; cls = Some (lattice.Lattice.to_string (List.assoc v classes)) }))
        vars;
    m_body = body;
  }

let outputs lattice rng cfg ~size =
  let p = Gen.program rng cfg ~size in
  let p = { p with Ast.body = with_declassify rng lattice p.Ast.body } in
  let classes =
    List.map
      (fun v -> (v, pick rng lattice.Lattice.elements))
      (Sset.elements (Vars.all_vars p.Ast.body))
  in
  let b = Binding.make lattice classes in
  let reports =
    List.map
      (fun self_check ->
        Fmt.str "%a"
          (Report.pp_result ~program:p lattice)
          (Cfm.analyze ~self_check b p.Ast.body))
      [ false; true ]
  in
  let summaries =
    List.map
      (fun self_check ->
        let s = Cfm.fold (Cfm.algebra b) ~self_check p.Ast.body in
        Printf.sprintf "%s %s %b" s.Cfm.mod_ (pp_flow lattice s.Cfm.flow) s.Cfm.cert)
      [ false; true ]
  in
  let modsum =
    match Summary.summarize ~lattice (as_module lattice classes p.Ast.body) with
    | Ok s -> Linked.summary_to_line s
    | Error e -> "error " ^ e
  in
  reports @ summaries @ [ modsum ]

let corpus_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun name ->
      let lattice = scheme name in
      List.iter
        (fun (cname, cfg) ->
          let rng = Prng.create (Hashtbl.hash (name, cname)) in
          for i = 1 to 25 do
            List.iter
              (fun line ->
                Buffer.add_string buf line;
                Buffer.add_char buf '\n')
              (outputs lattice rng cfg ~size:(1 + (i * 3 mod 40)))
          done)
        configs)
    [ "two"; "four"; "mls" ];
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_pinned () =
  let bytes, md5 = corpus_digest () in
  Alcotest.(check bool) "corpus is non-trivial" true (bytes > 100_000);
  Alcotest.(check string) "reports, fold summaries and module summaries"
    "b483fbaf070554eb9fe7db4c2af68024" md5

let suite =
  ("figure2", [ Alcotest.test_case "pinned outputs of all three" `Quick test_pinned ])
