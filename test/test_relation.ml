(* Relation: result sets, sorting, equality. *)

open Relational

let mk l = Array.of_list (List.map (fun n -> Value.Int n) l)

let r1 () = Relation.create [| "a"; "b" |] [ mk [ 1; 2 ]; mk [ 3; 4 ] ]

let test_create_checks_arity () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.create: tuple arity 1, expected 2") (fun () ->
      ignore (Relation.create [| "a"; "b" |] [ mk [ 1 ] ]))

let test_basic_accessors () =
  let r = r1 () in
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality r);
  Alcotest.(check int) "arity" 2 (Array.length (Relation.cols r));
  Alcotest.(check (option int)) "column b" (Some 1) (Relation.column_index r "b");
  Alcotest.(check (option int)) "missing col" None (Relation.column_index r "z")

(* The raising lookup lives with the tests that use it; the program
   itself matches on [Relation.column_index]. *)
let column_index_exn r name =
  match Relation.column_index r name with
  | Some i -> i
  | None -> invalid_arg ("no column " ^ name)

let test_column_index_exn () =
  Alcotest.(check int) "found" 0 (column_index_exn (r1 ()) "a");
  Alcotest.(check bool) "raises" true
    (try
       ignore (column_index_exn (r1 ()) "nope");
       false
     with Invalid_argument _ -> true)

let test_sort_stable_null_first () =
  let rows =
    [ mk [ 2; 0 ]; [| Value.Null; Value.Int 1 |]; mk [ 1; 2 ]; mk [ 1; 3 ] ]
  in
  let r = Relation.sort_by [| 0 |] (Relation.create [| "k"; "tag" |] rows) in
  (match Relation.rows r with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "null row first" true (Value.is_null a.(0));
      Alcotest.(check bool) "stable among equal keys" true
        (Value.equal b.(1) (Value.Int 2) && Value.equal c.(1) (Value.Int 3));
      Alcotest.(check bool) "largest last" true (Value.equal d.(0) (Value.Int 2))
  | _ -> Alcotest.fail "wrong row count");
  Alcotest.(check bool) "sorting a sorted relation keeps it" true
    (Relation.equal r (Relation.sort_by [| 0 |] r))

let test_equality () =
  let a = Relation.create [| "x" |] [ mk [ 1 ]; mk [ 2 ] ] in
  let b = Relation.create [| "x" |] [ mk [ 2 ]; mk [ 1 ] ] in
  Alcotest.(check bool) "ordered equal fails" false (Relation.equal a b);
  Alcotest.(check bool) "equal once sorted" true
    (Relation.equal (Relation.sort_by [| 0 |] a) (Relation.sort_by [| 0 |] b));
  let c = Relation.create [| "y" |] [ mk [ 1 ]; mk [ 2 ] ] in
  Alcotest.(check bool) "different cols" false (Relation.equal a c)

(* A relation's transfer size as a drain reads it: the batch carrying
   its rows with their wire sizes totals the sum of those sizes. *)
let test_wire_size () =
  let rows = Array.of_list (Relation.rows (r1 ())) in
  let bytes = Array.map Tuple.wire_size rows in
  Alcotest.(check int) "sum of tuple sizes"
    (Array.fold_left ( + ) 0 bytes)
    (Batch.total_bytes (Batch.of_rows ~bytes rows))

let suite =
  [
    Alcotest.test_case "create checks arity" `Quick test_create_checks_arity;
    Alcotest.test_case "accessors" `Quick test_basic_accessors;
    Alcotest.test_case "column_index_exn" `Quick test_column_index_exn;
    Alcotest.test_case "stable sort, NULL first" `Quick test_sort_stable_null_first;
    Alcotest.test_case "equality variants" `Quick test_equality;
    Alcotest.test_case "wire size" `Quick test_wire_size;
  ]

let prop_sort_idempotent =
  let arb =
    QCheck.make
      QCheck.Gen.(
        map
          (fun rows -> List.map (fun l -> mk l) rows)
          (list_size (int_bound 20) (list_repeat 2 (int_bound 5))))
  in
  QCheck.Test.make ~name:"sort_by is idempotent" ~count:200 arb (fun rows ->
      let r = Relation.create [| "a"; "b" |] rows in
      let s1 = Relation.sort_by [| 0; 1 |] r in
      let s2 = Relation.sort_by [| 0; 1 |] s1 in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Tuple.compare_at [| 0; 1 |] a b <= 0 && sorted rest
        | _ -> true
      in
      Relation.equal s1 s2 && sorted (Relation.rows s1))

let props = [ prop_sort_idempotent ]
