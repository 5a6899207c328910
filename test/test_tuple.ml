(* Tuple: positional helpers used by joins, sorts and the merge tagger. *)

open Relational

let mk l = Array.of_list (List.map (fun n -> Value.Int n) l)

let test_concat_project () =
  let t = Tuple.concat (mk [ 1; 2 ]) (mk [ 3 ]) in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  let p = Tuple.project [| 2; 0 |] t in
  Alcotest.(check bool) "projected" true (Tuple.equal p (mk [ 3; 1 ]))

let test_all_null () =
  let t = Tuple.all_null 4 in
  Alcotest.(check int) "arity" 4 (Tuple.arity t);
  Alcotest.(check bool) "all null" true (Array.for_all Value.is_null t)

let test_compare_at_lexicographic () =
  let a = mk [ 1; 5; 9 ] and b = mk [ 1; 6; 0 ] in
  Alcotest.(check bool) "second position decides" true
    (Tuple.compare_at [| 0; 1 |] a b < 0);
  Alcotest.(check bool) "restricted to first: equal" true
    (Tuple.compare_at [| 0 |] a b = 0);
  Alcotest.(check bool) "reversed positions" true
    (Tuple.compare_at [| 2; 0 |] a b > 0)

let test_compare_at_null_first () =
  let a = [| Value.Null; Value.Int 1 |] and b = [| Value.Int 0; Value.Int 0 |] in
  Alcotest.(check bool) "null sorts first" true (Tuple.compare_at [| 0 |] a b < 0)

let test_hash_at_consistency () =
  let a = mk [ 1; 2; 3 ] and b = mk [ 9; 2; 3 ] in
  Alcotest.(check bool) "same key, same hash" true
    (Tuple.hash_at [| 1; 2 |] a = Tuple.hash_at [| 1; 2 |] b);
  Alcotest.(check bool) "equal_at" true (Tuple.equal_at [| 1; 2 |] a [| 1; 2 |] b);
  Alcotest.(check bool) "not equal_at full" false (Tuple.equal_at [| 0 |] a [| 0 |] b);
  (* positions differ per side, as a join's left and right keys do *)
  let c = mk [ 3; 2 ] in
  Alcotest.(check bool) "equal_at across positions" true
    (Tuple.equal_at [| 1; 2 |] a [| 1; 0 |] c);
  Alcotest.(check bool) "hash_at across positions" true
    (Tuple.hash_at [| 1; 2 |] a = Tuple.hash_at [| 1; 0 |] c);
  Alcotest.(check bool) "INT and FLOAT keys are equal" true
    (Tuple.equal_at [| 0 |] [| Value.Int 2 |] [| 0 |] [| Value.Float 2.0 |]
    && Tuple.hash_at [| 0 |] [| Value.Int 2 |] = Tuple.hash_at [| 0 |] [| Value.Float 2.0 |])

let test_full_compare_shorter_first () =
  Alcotest.(check bool) "shorter first" true (Tuple.compare (mk [ 1 ]) (mk [ 1; 1 ]) < 0);
  Alcotest.(check bool) "content" true (Tuple.compare (mk [ 1; 2 ]) (mk [ 1; 3 ]) < 0)

let test_wire_size_sums () =
  let t = [| Value.Null; Value.String "ab" |] in
  Alcotest.(check int) "sum of field sizes"
    (Value.wire_size Value.Null + Value.wire_size (Value.String "ab"))
    (Tuple.wire_size t)

let suite =
  [
    Alcotest.test_case "concat and project" `Quick test_concat_project;
    Alcotest.test_case "all_null padding" `Quick test_all_null;
    Alcotest.test_case "compare_at lexicographic" `Quick test_compare_at_lexicographic;
    Alcotest.test_case "compare_at NULL first" `Quick test_compare_at_null_first;
    Alcotest.test_case "hash_at consistent with equal_at" `Quick test_hash_at_consistency;
    Alcotest.test_case "full compare" `Quick test_full_compare_shorter_first;
    Alcotest.test_case "wire size" `Quick test_wire_size_sums;
  ]

let arb_tuple =
  QCheck.make
    ~print:(fun t -> Tuple.to_string t)
    QCheck.Gen.(map Array.of_list (list_size (int_range 0 6) Test_value.gen_value))

let prop_project_identity =
  QCheck.Test.make ~name:"project on all positions is identity" ~count:300 arb_tuple
    (fun t ->
      let all = Array.init (Tuple.arity t) (fun i -> i) in
      Tuple.equal (Tuple.project all t) t)

let prop_compare_at_prefix =
  QCheck.Test.make ~name:"compare_at on empty positions is 0" ~count:300
    (QCheck.pair arb_tuple arb_tuple) (fun (a, b) -> Tuple.compare_at [||] a b = 0)

let props = [ prop_project_identity; prop_compare_at_prefix ]
