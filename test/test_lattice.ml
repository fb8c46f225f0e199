(* Tests for the classification-scheme substrate (Definitions 1 and 4). *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Powerset = Ifc_lattice.Powerset
module Product = Ifc_lattice.Product
module Mls = Ifc_lattice.Mls
module Extended = Ifc_lattice.Extended
module Laws = Ifc_lattice.Laws
module Spec = Ifc_lattice.Spec

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Chains *)

let test_two_point () =
  let l = Chain.two in
  check "low <= high" true (l.leq l.bottom l.top);
  check "high <= low fails" false (l.leq l.top l.bottom);
  check_int "join low high" l.top (l.join l.bottom l.top);
  check_int "meet low high" l.bottom (l.meet l.bottom l.top);
  check_string "print low" "low" (l.to_string l.bottom);
  check_string "print high" "high" (l.to_string l.top)

let test_chain_parse () =
  let l = Chain.four in
  (match l.of_string "secret" with
  | Ok c -> check_string "roundtrip" "secret" (l.to_string c)
  | Error e -> Alcotest.fail e);
  check "unknown class rejected" true (Result.is_error (l.of_string "zebra"))

let test_chain_order () =
  let l = Chain.four in
  let classes = l.elements in
  check_int "four levels" 4 (List.length classes);
  List.iteri
    (fun i x -> List.iteri (fun j y -> check "total order" (i <= j) (l.leq x y)) classes)
    classes

let test_chain_of_size () =
  let l = Chain.of_size 7 in
  check_int "seven elements" 7 (List.length l.elements);
  check_int "height" 6 (Lattice.height l)

let test_chain_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Chain.make: empty level list") (fun () ->
      ignore (Chain.make []));
  Alcotest.check_raises "duplicates" (Invalid_argument "Chain.make: duplicate level names")
    (fun () -> ignore (Chain.make [ "a"; "a" ]))

(* ------------------------------------------------------------------ *)
(* Powersets *)

let cats = Powerset.make [ "NUC"; "EUR"; "ASI" ]

let test_powerset_basics () =
  let nuc = Powerset.of_categories cats [ "NUC" ] in
  let eur = Powerset.of_categories cats [ "EUR" ] in
  let both = Powerset.of_categories cats [ "NUC"; "EUR" ] in
  check "nuc <= nuc+eur" true (cats.leq nuc both);
  check "nuc <= eur fails" false (cats.leq nuc eur);
  check "incomparable" false (Lattice.comparable cats nuc eur);
  check_int "join" both (cats.join nuc eur);
  check_int "meet" cats.bottom (cats.meet nuc eur);
  check_int "eight elements" 8 (List.length cats.elements)

let test_powerset_strings () =
  let both = Powerset.of_categories cats [ "NUC"; "EUR" ] in
  check_string "print" "{NUC,EUR}" (cats.to_string both);
  (match cats.of_string "{EUR , NUC}" with
  | Ok x -> check_int "parse unordered" both x
  | Error e -> Alcotest.fail e);
  (match cats.of_string "{}" with
  | Ok x -> check_int "parse empty" cats.bottom x
  | Error e -> Alcotest.fail e);
  check "garbage rejected" true (Result.is_error (cats.of_string "NUC"));
  check "unknown category" true (Result.is_error (cats.of_string "{SPACE}"))

let test_powerset_categories_roundtrip () =
  List.iter
    (fun x ->
      let names = Powerset.categories cats x in
      check_int "roundtrip" x (Powerset.of_categories cats names))
    cats.elements

(* ------------------------------------------------------------------ *)
(* Products and MLS *)

let test_product_order () =
  let p = Product.make Chain.two Chain.two in
  let mid1 = (0, 1) and mid2 = (1, 0) in
  check "componentwise" true (p.leq p.bottom mid1);
  check "incomparable mids" false (Lattice.comparable p mid1 mid2);
  check "join of mids is top" true (p.equal (p.join mid1 mid2) p.top);
  check "meet of mids is bottom" true (p.equal (p.meet mid1 mid2) p.bottom);
  check_int "size" 4 (List.length p.elements)

let test_mls_labels () =
  let l = Mls.standard in
  let s_nuc = Mls.label l "secret:{NUC}" in
  let ts_nuc = Mls.label l "topsecret:{NUC}" in
  let s_nuc_eur = Mls.label l "secret:{NUC,EUR}" in
  let c_eur = Mls.label l "confidential:{EUR}" in
  check "level raise" true (l.leq s_nuc ts_nuc);
  check "category widen" true (l.leq s_nuc s_nuc_eur);
  check "cross is incomparable" false (Lattice.comparable l s_nuc c_eur);
  check_string "print" "secret:{NUC}" (l.to_string s_nuc);
  check_int "32 elements" 32 (List.length l.elements)

(* ------------------------------------------------------------------ *)
(* Extended scheme (Definition 4) *)

let test_extended_nil () =
  let e = Extended.make Chain.two in
  check "nil below everything" true (List.for_all (e.leq e.bottom) e.elements);
  check "nothing below nil" true
    (List.for_all
       (fun x -> Extended.is_nil x || not (e.leq x Extended.Nil))
       e.elements);
  check "nil is join identity" true
    (List.for_all (fun x -> e.equal (e.join Extended.Nil x) x) e.elements);
  check "nil absorbs meet" true
    (List.for_all (fun x -> e.equal (e.meet Extended.Nil x) Extended.Nil) e.elements);
  check_int "one extra element" 3 (List.length e.elements);
  check_string "prints nil" "nil" (e.to_string e.bottom);
  (match e.of_string "nil" with
  | Ok x -> check "parses nil" true (Extended.is_nil x)
  | Error err -> Alcotest.fail err);
  match e.of_string "high" with
  | Ok (Extended.El _) -> ()
  | Ok Extended.Nil -> Alcotest.fail "high parsed as nil"
  | Error err -> Alcotest.fail err

let test_extended_preserves_base () =
  let base = Chain.four in
  let e = Extended.make base in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check "order agrees with base" (base.leq x y)
            (e.leq (Extended.lift x) (Extended.lift y)))
        base.elements)
    base.elements

(* ------------------------------------------------------------------ *)
(* String classes (Lattice.stringify) *)

let powerset4 = Powerset.make [ "a"; "b"; "c"; "d" ]

let stringified =
  [
    ("two", Lattice.stringify Chain.two);
    ("three", Lattice.stringify Chain.three);
    ("four", Lattice.stringify Chain.four);
    ("mls", Lattice.stringify Mls.standard);
    ("extended mls", Lattice.stringify (Extended.make Mls.standard));
    ("powerset-4", Lattice.stringify powerset4);
  ]

(* Every operation on names equals the native operation, printed. *)
let agrees_with_native name (l : 'a Lattice.t) =
  Alcotest.test_case ("stringify agrees: " ^ name) `Quick (fun () ->
      let s = Lattice.stringify l in
      let p = l.to_string in
      Alcotest.(check (list string)) "elements" (List.map p l.elements) s.elements;
      check_string "bottom" (p l.bottom) s.bottom;
      check_string "top" (p l.top) s.top;
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              check "leq" (l.leq x y) (s.leq (p x) (p y));
              check_string "join" (p (l.join x y)) (s.join (p x) (p y));
              check_string "meet" (p (l.meet x y)) (s.meet (p x) (p y)))
            l.elements)
        l.elements)

let stringify_agreement =
  [
    agrees_with_native "two" Chain.two;
    agrees_with_native "three" Chain.three;
    agrees_with_native "four" Chain.four;
    agrees_with_native "mls" Mls.standard;
    agrees_with_native "extended mls" (Extended.make Mls.standard);
    agrees_with_native "powerset-4" powerset4;
  ]

let mls_names = List.assoc "mls" stringified

let test_stringify_of_string () =
  let s = mls_names in
  (match s.of_string "secret:{EUR,NUC}" with
  | Ok name ->
    check_string "canonical spelling" "secret:{NUC,EUR}" name;
    check "the shared element name" true (List.memq name s.elements)
  | Error e -> Alcotest.fail e);
  (match s.of_string "secret:{NUC}" with
  | Ok name -> check "a copy maps to the shared name" true (List.memq name s.elements)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match (s.of_string bad, Mls.standard.of_string bad) with
      | Error got, Error want -> check_string ("native message for " ^ bad) want got
      | _ -> Alcotest.failf "%S accepted" bad)
    [ "zebra"; "secret:{SPACE}"; "secret"; "" ]

let test_stringify_noncanonical_operands () =
  let s = mls_names in
  check "leq" true (s.leq "secret:{EUR}" "secret:{EUR,NUC}");
  check "leq, both spellings" true (s.leq "secret:{EUR,NUC}" "secret:{NUC,EUR}");
  check_string "join" "secret:{NUC,EUR,ASI}"
    (s.join "secret:{EUR,NUC}" "confidential:{ASI}");
  check_string "meet" "confidential:{NUC}"
    (s.meet "secret:{ASI,NUC}" "confidential:{EUR,NUC}");
  check_string "join with itself" "secret:{NUC,EUR}"
    (s.join "secret:{EUR,NUC}" "secret:{EUR,NUC}");
  Alcotest.check_raises "unknown operand"
    (Invalid_argument
       "Lattice.stringify: powerset(NUC,EUR,ASI): unknown category \"SPACE\"")
    (fun () -> ignore (s.leq "secret:{SPACE}" "secret:{}"))

(* The covering relation by its definition, with order queries per
   triple; Lattice.covers must reproduce it pair for pair, in order. *)
let covers_reference (l : 'a Lattice.t) =
  let lt x y = l.leq x y && not (l.equal x y) in
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y ->
          if lt x y && not (List.exists (fun z -> lt x z && lt z y) l.elements) then
            Some (x, y)
          else None)
        l.elements)
    l.elements

let test_covers_reference () =
  let same name l = check name true (Lattice.covers l = covers_reference l) in
  same "two" Chain.two;
  same "mls" Mls.standard;
  same "extended mls" (Extended.make Mls.standard);
  same "powerset-4" powerset4;
  same "dual mls" (Lattice.dual Mls.standard);
  List.iter (fun (name, l) -> same ("stringified " ^ name) l) stringified

(* The rendered mls scheme is part of every mls job digest, store object
   name and certificate; its bytes must not move. *)
let test_mls_text_pinned () =
  check_string "md5 of Spec.to_text mls" "7404a3903bf88b4e5fab560f800e1964"
    (Digest.to_hex (Digest.string (Spec.to_text mls_names)))

(* Job digests take a built-in scheme's text from [Builtin.to_text],
   rendered once; it must be [Spec.to_text]'s, and any other lattice,
   even an equal one built anew, is rendered on the spot. *)
let test_builtin_text () =
  List.iter
    (fun name ->
      let l = Option.get (Ifc_lattice.Builtin.find name) in
      check_string name (Spec.to_text l) (Ifc_lattice.Builtin.to_text l);
      check (name ^ " rendered once") true
        (Ifc_lattice.Builtin.to_text l == Ifc_lattice.Builtin.to_text l))
    [ "two"; "three"; "four"; "mls" ];
  let fresh = Lattice.stringify Mls.standard in
  check_string "fresh mls" (Spec.to_text fresh) (Ifc_lattice.Builtin.to_text fresh)

let test_builtin_table () =
  List.iter
    (fun name ->
      match (Ifc_lattice.Builtin.find name, Ifc_lattice.Builtin.find name) with
      | Some a, Some b ->
        check (name ^ " built once") true (a == b);
        check_string (name ^ " renders as its stringified scheme")
          (Spec.to_text (List.assoc name stringified)) (Spec.to_text a)
      | _ -> Alcotest.failf "builtin %s missing" name)
    [ "two"; "three"; "four"; "mls" ];
  check "two" true
    (Option.get (Ifc_lattice.Builtin.find "two") == Ifc_lattice.Builtin.two);
  check "unknown name" true (Option.is_none (Ifc_lattice.Builtin.find "five"))

(* A class operation on a built-in scheme is a name lookup and a table
   read: over every ordered pair of classes, leq, equal, join and meet
   allocate nothing. The bound leaves room for the reading of the
   counter itself. *)
let test_builtin_ops_allocate_nothing () =
  List.iter
    (fun name ->
      let l = Option.get (Ifc_lattice.Builtin.find name) in
      let elts = Array.of_list l.elements in
      let n = Array.length elts in
      List.iter
        (fun (op, f) ->
          let w0 = Gc.minor_words () in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              f elts.(i) elts.(j)
            done
          done;
          let words = Gc.minor_words () -. w0 in
          if words > 16. then
            Alcotest.failf "%s %s: %.0f minor words over %d pairs" name op words (n * n))
        [
          ("leq", fun x y -> ignore (Sys.opaque_identity (l.leq x y)));
          ("equal", fun x y -> ignore (Sys.opaque_identity (l.equal x y)));
          ("join", fun x y -> ignore (Sys.opaque_identity (l.join x y)));
          ("meet", fun x y -> ignore (Sys.opaque_identity (l.meet x y)));
        ])
    [ "two"; "three"; "four"; "mls" ]

(* ------------------------------------------------------------------ *)
(* Laws *)

let law_cases =
  let checkable name lattice_check =
    Alcotest.test_case ("laws: " ^ name) `Quick (fun () ->
        match lattice_check with
        | Ok () -> ()
        | Error { Laws.law; witness } -> Alcotest.fail (law ^ " violated by " ^ witness))
  in
  [
    checkable "two-point" (Laws.check Chain.two);
    checkable "four-chain" (Laws.check Chain.four);
    checkable "powerset-3" (Laws.check cats);
    checkable "product" (Laws.check (Product.make Chain.two cats));
    checkable "mls-standard" (Laws.check Mls.standard);
    checkable "extended-two" (Laws.check (Extended.make Chain.two));
    checkable "extended-mls" (Laws.check (Extended.make Mls.standard));
    checkable "big-powerset-sampled" (Laws.check ~sample:24 (Powerset.make
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k"; "l" ]));
  ]
  @ List.map
      (fun (name, l) -> checkable ("stringified " ^ name) (Laws.check l))
      stringified

let test_laws_catch_broken_lattice () =
  (* Sabotage the join of an otherwise fine lattice; the checker must
     report a violation. *)
  let broken = { Chain.two with Lattice.join = (fun _ _ -> 0) } in
  match Laws.check broken with
  | Ok () -> Alcotest.fail "broken lattice passed the law check"
  | Error { Laws.law; _ } ->
    check "a join law fails" true
      (List.mem law [ "join-upper-bound"; "join-least"; "leq-join-consistent" ])

(* ------------------------------------------------------------------ *)
(* Spec parser *)

let diamond_spec =
  {|
# A diamond: bottom < left,right < top
lattice diamond
elements: bottom left right top
order: bottom < left < top
order: bottom < right < top
|}

let test_spec_diamond () =
  match Spec.parse diamond_spec with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check_string "name" "diamond" l.name;
    check_string "bottom elem" "bottom" (l.to_string l.bottom);
    check_string "top elem" "top" (l.to_string l.top);
    check "left/right incomparable" false (Lattice.comparable l "left" "right");
    check_string "join" "top" (l.to_string (l.join "left" "right"));
    check_string "meet" "bottom" (l.to_string (l.meet "left" "right"));
    (match Laws.check l with
    | Ok () -> ()
    | Error { Laws.law; witness } -> Alcotest.fail (law ^ ": " ^ witness))

(* Class names with braces and commas (secret:{NUC,EUR}) survive the
   round trip, and the re-rendered text is byte-identical. *)
let test_spec_roundtrip () =
  let diamond = Result.get_ok (Spec.parse diamond_spec) in
  List.iter
    (fun (name, l) ->
      match Spec.parse (Spec.to_text l) with
      | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
      | Ok l2 ->
        Alcotest.(check (list string)) (name ^ ": same elements") l.elements l2.elements;
        List.iter
          (fun x ->
            List.iter
              (fun y -> check (name ^ ": same order") (l.leq x y) (l2.leq x y))
              l.elements)
          l.elements;
        check_string (name ^ ": same text") (Spec.to_text l) (Spec.to_text l2))
    (("diamond", diamond)
    :: List.filter
         (fun (name, _) -> List.mem name [ "mls"; "extended mls"; "powerset-4" ])
         stringified)

(* A scheme parsed from its own spec text answers every operation as the
   original does, on the shared names and on fresh copies of them. A name
   that is not an element (a non-canonical spelling included) is below
   and equal to nothing, and join and meet refuse it. *)
let test_spec_parsed_agrees () =
  let copy s = Bytes.to_string (Bytes.of_string s) in
  List.iter
    (fun (name, (l : string Lattice.t)) ->
      match Spec.parse (Spec.to_text l) with
      | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
      | Ok p ->
        check_string (name ^ ": bottom") l.bottom p.bottom;
        check_string (name ^ ": top") l.top p.top;
        List.iter
          (fun x ->
            (match p.of_string (copy x) with
            | Ok y -> check_string (name ^ ": of_string") x y
            | Error e -> Alcotest.fail e);
            List.iter
              (fun y ->
                List.iter
                  (fun (x', y') ->
                    check (name ^ ": leq") (l.leq x y) (p.leq x' y');
                    check (name ^ ": equal") (l.equal x y) (p.equal x' y');
                    check_string (name ^ ": join") (l.join x y) (p.join x' y');
                    check_string (name ^ ": meet") (l.meet x y) (p.meet x' y'))
                  [ (x, y); (copy x, copy y) ])
              l.elements)
          l.elements;
        List.iter
          (fun stranger ->
            check (name ^ ": stranger of_string") true
              (Result.is_error (p.of_string stranger));
            check (name ^ ": stranger equal to itself") false (p.equal stranger stranger);
            List.iter
              (fun x ->
                check (name ^ ": stranger leq") false (p.leq stranger x);
                check (name ^ ": leq stranger") false (p.leq x stranger);
                check (name ^ ": stranger equal") false (p.equal stranger x);
                check (name ^ ": equal stranger") false (p.equal x stranger);
                List.iter
                  (fun op ->
                    match op stranger x with
                    | _ -> Alcotest.failf "%s: join/meet accepted %S" name stranger
                    | exception Invalid_argument _ -> ())
                  [ p.join; p.meet; Fun.flip p.join; Fun.flip p.meet ])
              l.elements)
          [ "no-such-class"; "secret:{EUR,NUC}" ])
    (List.filter
       (fun (name, _) -> List.mem name [ "two"; "three"; "four"; "mls"; "powerset-4" ])
       stringified)

let test_spec_errors () =
  let cases =
    [
      ("not a lattice", "lattice l\nelements: a b c\norder: a < b, a < c");
      (* b and c have no upper bound *)
      ("cycle", "lattice l\nelements: a b\norder: a < b, b < a");
      ("undeclared", "lattice l\nelements: a b\norder: a < z");
      ("no elements", "lattice l\norder: a < b");
      ("bad directive", "lattice l\nelements: a\nfoo: bar");
    ]
  in
  List.iter
    (fun (name, text) -> check name true (Result.is_error (Spec.parse text)))
    cases

(* The exact message of every structural error, as recorded before
   [make_from_order] and the spec closure moved to index matrices. *)
let test_spec_error_messages () =
  let message = function Ok _ -> "accepted" | Error e -> e in
  List.iter
    (fun (text, expected) -> check_string text expected (message (Spec.parse text)))
    [
      ("lattice l\nelements: a b c\norder: a < b, a < c", "l: no least upper bound for b and c");
      ("lattice l\nelements: a b c\norder: b < a, c < a", "l: no greatest lower bound for b and c");
      ( "lattice l\nelements: a b c d\norder: a < c, a < d, b < c, b < d",
        "l: no least upper bound for a and b" );
      ("lattice l\nelements: a b\norder: a < b, b < a", "l: order cycle between a and b");
      ("lattice l\nelements: a b c\norder: a < b < c < a", "l: order cycle between a and b");
      ("lattice l\nelements: a b\norder: a < z", "l: order mentions undeclared element in a < z");
      ("lattice l\norder: a < b", "l: no elements declared");
      ("lattice l\nelements: a\nfoo: bar", "line 3: unrecognised directive \"foo: bar\"");
      ("lattice l\nelements: a a b\norder: a < b", "l: duplicate element names");
      ("lattice l\nelements: a b\norder: a", "line 3: expected a < b [< c ...] in order clause");
    ];
  let elements = [ "a"; "b" ] in
  List.iter
    (fun (what, leq, expected) ->
      check_string what expected
        (message (Lattice.make_from_order ~name:"m" ~elements ~leq)))
    [
      ("irreflexive", (fun x y -> x < y), "m: order is not reflexive");
      ("preorder", (fun _ _ -> true), "accepted");
    ];
  check_string "not transitive" "m: order is not transitive"
    (message
       (Lattice.make_from_order ~name:"m" ~elements:[ "a"; "b"; "c" ]
          ~leq:(fun x y -> x = y || (x, y) = ("a", "b") || (x, y) = ("b", "c"))));
  check_string "empty carrier" "m: empty carrier"
    (message
       (Lattice.make_from_order ~name:"m" ~elements:[] ~leq:( = )))

let test_spec_single_element () =
  match Spec.parse "lattice one\nelements: only" with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check "bottom = top" true (l.equal l.bottom l.top);
    check_int "height 0" 0 (Lattice.height l)

(* ------------------------------------------------------------------ *)
(* Generic structure helpers *)

let test_covers_and_height () =
  let l = Chain.four in
  check_int "chain covers" 3 (List.length (Lattice.covers l));
  check_int "chain height" 3 (Lattice.height l);
  check_int "powerset height" 3 (Lattice.height cats);
  check_int "powerset covers" 12 (List.length (Lattice.covers cats))

let test_dual () =
  let l = Chain.four in
  let d = Lattice.dual l in
  check "leq flipped" true (d.leq l.top l.bottom);
  check "dual bottom is top" true (d.equal d.bottom l.top);
  check "join is meet" true (d.equal (d.join 1 2) (l.meet 1 2));
  (match Laws.check d with
  | Ok () -> ()
  | Error { Laws.law; witness } -> Alcotest.fail (law ^ ": " ^ witness));
  (* Involution: the dual of the dual restores the original order. *)
  let dd = Lattice.dual d in
  List.iter
    (fun x -> List.iter (fun y -> check "involution" (l.leq x y) (dd.leq x y)) l.elements)
    l.elements;
  (* Integrity certification: trusted -> untrusted flows are the ones
     allowed. With confidentiality low=untrusted this flips. *)
  let b =
    Ifc_core.Binding.make d [ ("trusted", l.top); ("untrusted", l.bottom) ]
  in
  let stmt src =
    match Ifc_lang.Parser.parse_stmt src with
    | Ok s -> s
    | Error _ -> Alcotest.fail "parse"
  in
  check "trusted into untrusted ok" true
    (Ifc_core.Cfm.certified b (stmt "untrusted := trusted"));
  check "untrusted into trusted rejected" false
    (Ifc_core.Cfm.certified b (stmt "trusted := untrusted"))

let test_joins_meets_empty () =
  let l = Chain.four in
  check_int "empty join is bottom" l.bottom (Lattice.joins l []);
  check_int "empty meet is top" l.top (Lattice.meets l [])

let test_make_from_order_rejects_nonlattice () =
  let elements = [ "a"; "b"; "c"; "d" ] in
  (* a < c, a < d, b < c, b < d: no lub for a,b; no glb for c,d. *)
  let leq x y =
    String.equal x y
    || match (x, y) with "a", ("c" | "d") | "b", ("c" | "d") -> true | _ -> false
  in
  check "rejected" true
    (Result.is_error
       (Lattice.make_from_order ~name:"m2" ~elements ~leq))

(* ------------------------------------------------------------------ *)
(* Property-based: random elements obey the algebra on larger schemes. *)

let qcheck_lattice_props =
  let l = Product.make Chain.four (Powerset.make [ "a"; "b"; "c"; "d" ]) in
  let arr = Array.of_list l.elements in
  let gen_elt = QCheck.map (fun i -> arr.(i mod Array.length arr)) QCheck.small_nat in
  let triple = QCheck.triple gen_elt gen_elt gen_elt in
  [
    QCheck.Test.make ~name:"distributivity (chain x powerset)" ~count:500 triple
      (fun (x, y, z) ->
        l.equal (l.meet x (l.join y z)) (l.join (l.meet x y) (l.meet x z)));
    QCheck.Test.make ~name:"join monotone" ~count:500 triple (fun (x, y, z) ->
        QCheck.assume (l.leq x y);
        l.leq (l.join x z) (l.join y z));
    QCheck.Test.make ~name:"meet monotone" ~count:500 triple (fun (x, y, z) ->
        QCheck.assume (l.leq x y);
        l.leq (l.meet x z) (l.meet y z));
  ]
  |> List.map (QCheck_alcotest.to_alcotest ~long:false)

let suite =
  ( "lattice",
    [
      Alcotest.test_case "two-point basics" `Quick test_two_point;
      Alcotest.test_case "chain parse" `Quick test_chain_parse;
      Alcotest.test_case "chain order" `Quick test_chain_order;
      Alcotest.test_case "chain of_size" `Quick test_chain_of_size;
      Alcotest.test_case "chain invalid" `Quick test_chain_invalid;
      Alcotest.test_case "powerset basics" `Quick test_powerset_basics;
      Alcotest.test_case "powerset strings" `Quick test_powerset_strings;
      Alcotest.test_case "powerset categories roundtrip" `Quick
        test_powerset_categories_roundtrip;
      Alcotest.test_case "product order" `Quick test_product_order;
      Alcotest.test_case "mls labels" `Quick test_mls_labels;
      Alcotest.test_case "extended nil" `Quick test_extended_nil;
      Alcotest.test_case "extended preserves base" `Quick test_extended_preserves_base;
      Alcotest.test_case "laws catch broken lattice" `Quick
        test_laws_catch_broken_lattice;
      Alcotest.test_case "spec diamond" `Quick test_spec_diamond;
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec-parsed scheme agrees" `Quick test_spec_parsed_agrees;
      Alcotest.test_case "spec errors" `Quick test_spec_errors;
      Alcotest.test_case "spec error messages" `Quick test_spec_error_messages;
      Alcotest.test_case "spec single element" `Quick test_spec_single_element;
      Alcotest.test_case "covers and height" `Quick test_covers_and_height;
      Alcotest.test_case "dual (integrity)" `Quick test_dual;
      Alcotest.test_case "joins/meets of empty" `Quick test_joins_meets_empty;
      Alcotest.test_case "make_from_order rejects non-lattice" `Quick
        test_make_from_order_rejects_nonlattice;
      Alcotest.test_case "stringify of_string canonicalises" `Quick
        test_stringify_of_string;
      Alcotest.test_case "stringify non-canonical operands" `Quick
        test_stringify_noncanonical_operands;
      Alcotest.test_case "covers matches its definition" `Quick test_covers_reference;
      Alcotest.test_case "mls spec text pinned" `Quick test_mls_text_pinned;
      Alcotest.test_case "built-in spec texts" `Quick test_builtin_text;
      Alcotest.test_case "builtin table" `Quick test_builtin_table;
      Alcotest.test_case "builtin operations allocate nothing" `Quick
        test_builtin_ops_allocate_nothing;
    ]
    @ stringify_agreement @ law_cases @ qcheck_lattice_props )
