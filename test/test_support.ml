(* Tests for the support substrate: the splittable PRNG, list utilities,
   and the string containers. *)

module Prng = Ifc_support.Prng
module Listx = Ifc_support.Listx
module Smap = Ifc_support.Smap
module Sset = Ifc_support.Sset
module Plant = Ifc_support.Plant

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* PRNG *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let draws rng = List.init 10 (fun _ -> Prng.bits rng) in
  check "different streams" false (draws a = draws b)

let test_prng_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    check "in range" true (v >= 0 && v < 13)
  done

let test_prng_range_inclusive () =
  let rng = Prng.create 5 in
  let seen = Array.make 4 false in
  for _ = 1 to 500 do
    let v = Prng.range rng 3 6 in
    check "range bounds" true (v >= 3 && v <= 6);
    seen.(v - 3) <- true
  done;
  check "all values hit" true (Array.for_all Fun.id seen)

let test_prng_split_decorrelates () =
  let parent = Prng.create 9 in
  let child = Prng.split parent in
  let a = List.init 20 (fun _ -> Prng.bits parent) in
  let b = List.init 20 (fun _ -> Prng.bits child) in
  check "distinct streams" false (a = b)

let test_prng_copy_independent () =
  let a = Prng.create 3 in
  ignore (Prng.bits a);
  let b = Prng.copy a in
  check_int "copies agree" (Prng.bits a) (Prng.bits b)

let test_prng_choose_weighted () =
  let rng = Prng.create 17 in
  for _ = 1 to 200 do
    check "choose member" true (List.mem (Prng.choose rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  (* A zero-weight option is never selected. *)
  for _ = 1 to 200 do
    check_int "weighted respects weights" 1 (Prng.weighted rng [ (5, 1) ])
  done;
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Prng.weighted rng [ (1, `A); (9, `B) ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let b_count = Option.value ~default:0 (Hashtbl.find_opt counts `B) in
  check "weights roughly respected" true (b_count > 2400)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 23 in
  let original = List.init 30 Fun.id in
  let shuffled = Prng.shuffle rng original in
  check "same multiset" true (List.sort compare shuffled = original);
  check "actually shuffles" false (shuffled = original)

(* ------------------------------------------------------------------ *)
(* Listx *)

let test_listx_pairs () =
  check "pairs" true
    (Listx.pairs [ 1; 2; 3 ] = [ (1, 2); (1, 3); (2, 3) ]);
  check "empty" true (Listx.pairs ([] : int list) = [])

let test_listx_cartesian () =
  check "cartesian" true
    (Listx.cartesian [ 1; 2 ] [ "a"; "b" ]
    = [ (1, "a"); (1, "b"); (2, "a"); (2, "b") ])

let test_listx_sequences () =
  check_int "2^3 sequences" 8 (List.length (Listx.sequences 3 [ 0; 1 ]));
  check "zero length" true (Listx.sequences 0 [ 1; 2 ] = [ [] ]);
  check "all distinct" true
    (let seqs = Listx.sequences 3 [ 0; 1 ] in
     List.length (List.sort_uniq compare seqs) = 8)

let test_listx_take_drop () =
  check "take" true (Listx.take 2 [ 1; 2; 3 ] = [ 1; 2 ]);
  check "take too many" true (Listx.take 9 [ 1 ] = [ 1 ]);
  check "drop" true (Listx.drop 2 [ 1; 2; 3 ] = [ 3 ]);
  check "drop all" true (Listx.drop 9 [ 1; 2 ] = ([] : int list))

let test_listx_index_of () =
  check "found" true (Listx.index_of (( = ) 3) [ 1; 3; 5 ] = Some 1);
  check "missing" true (Listx.index_of (( = ) 9) [ 1; 3; 5 ] = None)

let test_listx_dedup () =
  check "dedup keeps order" true (Listx.dedup compare [ 3; 1; 3; 2; 1 ] = [ 3; 1; 2 ])

let test_listx_transpose () =
  check "transpose" true
    (Listx.transpose [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] = [ [ 1; 3; 5 ]; [ 2; 4; 6 ] ])

(* ------------------------------------------------------------------ *)
(* Smap / Sset *)

let test_smap_helpers () =
  let m = Smap.of_list [ ("b", 2); ("a", 1); ("b", 3) ] in
  check_int "later binding wins" 3 (Smap.find "b" m);
  check "keys sorted" true (Smap.keys m = [ "a"; "b" ]);
  check "values in key order" true (Smap.values m = [ 1; 3 ]);
  check_int "find_or hit" 1 (Smap.find_or ~default:9 "a" m);
  check_int "find_or miss" 9 (Smap.find_or ~default:9 "z" m);
  let printed = Fmt.str "%a" (Smap.pp Fmt.int) m in
  check "pp shows bindings" true (printed = "{a -> 1; b -> 3}")

let test_sset_pp () =
  let s = Sset.of_list [ "b"; "a" ] in
  check "pp sorted" true (Fmt.str "%a" Sset.pp s = "{a, b}")

(* ------------------------------------------------------------------ *)
(* Plant registry *)

let test_plant_parse () =
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "empty enables nothing" true (Plant.parse "" = Ok []);
  check "registry order, deduplicated, blanks ignored" true
    (Plant.parse " stall:250,refine-unsound,, inversion,dataflow-unsound,inversion"
    = Ok [ Plant.Inversion; Dataflow_unsound; Refine_unsound; Stall 250 ]);
  check "every fixed name, in registry order" true
    (Plant.parse
       "refine-unsound,dataflow-unsound,store-stale,chan-unsound,\
        lint-unsound,cert-inversion,inversion"
    = Ok
        [
          Plant.Inversion;
          Cert_inversion;
          Lint_unsound;
          Chan_unsound;
          Store_stale;
          Dataflow_unsound;
          Refine_unsound;
        ]);
  check_int "stall milliseconds" 250
    (Plant.stall_ms (Result.get_ok (Plant.parse "inversion,stall:250")));
  check_int "no stall" 0 (Plant.stall_ms (Result.get_ok (Plant.parse "inversion")));
  List.iter
    (fun bad ->
      match Plant.parse bad with
      | Ok _ -> Alcotest.failf "%S must be rejected" bad
      | Error msg ->
        List.iter
          (fun name ->
            check (Printf.sprintf "%S's error lists %s" bad name) true
              (contains msg name))
          Plant.names)
    [ "inversoin"; "stall"; "stall:0"; "stall:-5"; "stall:abc"; "inversion,x" ]

let suite =
  ( "support",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
      Alcotest.test_case "prng int range" `Quick test_prng_int_range;
      Alcotest.test_case "prng range inclusive" `Quick test_prng_range_inclusive;
      Alcotest.test_case "prng split decorrelates" `Quick test_prng_split_decorrelates;
      Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
      Alcotest.test_case "prng choose/weighted" `Quick test_prng_choose_weighted;
      Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutation;
      Alcotest.test_case "listx pairs" `Quick test_listx_pairs;
      Alcotest.test_case "listx cartesian" `Quick test_listx_cartesian;
      Alcotest.test_case "listx sequences" `Quick test_listx_sequences;
      Alcotest.test_case "listx take/drop" `Quick test_listx_take_drop;
      Alcotest.test_case "listx index_of" `Quick test_listx_index_of;
      Alcotest.test_case "listx dedup" `Quick test_listx_dedup;
      Alcotest.test_case "listx transpose" `Quick test_listx_transpose;
      Alcotest.test_case "smap helpers" `Quick test_smap_helpers;
      Alcotest.test_case "sset pp" `Quick test_sset_pp;
      Alcotest.test_case "plant registry parse" `Quick test_plant_parse;
    ] )
