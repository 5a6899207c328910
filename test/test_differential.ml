(* Differential safety net for the physical interpreter: every plan of
   Query 1, both SQL styles, rows in the heap or spooled, and resilient
   under injected faults, must produce XML byte-identical to the same
   plan run through the seed AST interpreter and tagged directly — and
   must never charge more work than the seed did.  Then the empty
   database through every plan and execution mode, shuffled rows
   through three plans of q1 and q2, and NULL content values through
   every plan. *)

open Silkroute
open Matrix

let test_all_plans_both_styles () =
  check
    [ slice q1 (tpch 0.1) ~points:[ oj; ou ] ~modes:[ heap; spooled; Legacy ] ]

(* Retries and degradations may fire at rate 0.3; the bytes may not. *)
let test_all_plans_resilient () =
  let faults = resilient ~seed:14 [ 0.0; 0.3 ] in
  let modes = Legacy :: runs ~spool:[ true ] ~faults () in
  check ~fired:[ `Faults ] [ slice q1 (tpch 0.05) ~modes ]

let test_empty_database view () =
  let faults = resilient ~seed:14 [ 0.0; 0.3 ] in
  let modes = runs ~spool:[ false; true ] ~pool:[ 1; 4 ] ~faults () in
  check [ slice view empty ~modes ]

(* Shuffled base rows reach the sort's merge path, which generator
   order almost never does. *)
let test_shuffled_rows view () =
  let db = tpch_shuffled 0.1 in
  let p = (truth view db).p in
  let masks =
    List.map
      (fun s -> Partition.to_mask (Middleware.partition_of p s))
      Middleware.[ Unified; Fully_partitioned; Greedy ]
  in
  check [ slice view db ~masks:(only masks) ~modes:[ heap; spooled ] ]

(* Regression: a variable shared between a parent and its child
   branches may be NULL.  The outer join's correlation must match NULL
   with NULL, or row 3 (whose [b] is NULL) loses both children under
   unreduced plans while reduced ones keep them. *)
let null_content =
  of_text "null content"
    {|view v { from T $t construct
        <row><i>$t.id $t.i</i><b>$t.id $t.b</b></row> }|}

let null_db =
  database "nullable T" (fun () ->
      let db =
        Relational.Source_desc.load_database
          "table T {\n  id int key\n  i int null\n  b bool null\n}\n"
      in
      ignore (Relational.Csv.load db "T" "id,i,b\n1,-5,true\n3,7,\n");
      db)

let test_null_correlation () =
  check [ slice null_content null_db ~points:every_point ]

let suite =
  [
    Alcotest.test_case "NULL correlation: every plan, reduced or not" `Quick
      test_null_correlation;
    Alcotest.test_case "all plans, both styles, mat + streaming = legacy"
      `Slow test_all_plans_both_styles;
    Alcotest.test_case "all plans, resilient at fault rates 0/0.3 = legacy"
      `Slow test_all_plans_resilient;
    Alcotest.test_case "empty database: q1, all plans x modes" `Quick
      (test_empty_database q1);
    Alcotest.test_case "empty database: q2, all plans x modes" `Quick
      (test_empty_database q2);
    Alcotest.test_case "empty database: fragment, all plans x modes" `Quick
      (test_empty_database fragment);
    Alcotest.test_case "shuffled rows: q1, unified/fully/greedy x heap, spool"
      `Quick (test_shuffled_rows q1);
    Alcotest.test_case "shuffled rows: q2, unified/fully/greedy x heap, spool"
      `Quick (test_shuffled_rows q2);
  ]
