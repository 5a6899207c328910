(* Schema declarations, catalog operations, integrity checking. *)

open Relational

let people_schema =
  Schema.table "People" ~key:[ "id" ]
    [
      Schema.column "id" Value.TInt;
      Schema.column "name" Value.TString;
      Schema.column ~nullable:true "boss" Value.TInt;
    ]

let pets_schema =
  Schema.table "Pets" ~key:[ "pid" ]
    ~foreign_keys:
      [ { Schema.fk_cols = [ "owner" ]; ref_table = "People"; ref_cols = [ "id" ] } ]
    [
      Schema.column "pid" Value.TInt;
      Schema.column "owner" Value.TInt;
      Schema.column "species" Value.TString;
    ]

let mkdb () =
  let db = Database.create () in
  Database.add_table db people_schema;
  Database.add_table db pets_schema;
  db

let test_schema_helpers () =
  Alcotest.(check int) "arity" 3 (Schema.arity people_schema);
  Alcotest.(check (option int)) "column index" (Some 1)
    (Schema.column_index people_schema "name");
  Alcotest.(check bool) "has_column" true (Schema.has_column people_schema "boss");
  Alcotest.(check bool) "missing" false (Schema.has_column people_schema "xyz");
  Alcotest.(check (list string)) "names" [ "id"; "name"; "boss" ]
    (Schema.column_names people_schema)

let test_schema_key_must_exist () =
  Alcotest.(check bool) "bad key rejected" true
    (try
       ignore (Schema.table "T" ~key:[ "nope" ] [ Schema.column "a" Value.TInt ]);
       false
     with Invalid_argument _ -> true)

let test_insert_typecheck () =
  let db = mkdb () in
  Database.insert db "People"
    [ [| Value.Int 1; Value.String "ann"; Value.Null |] ];
  Alcotest.(check int) "row in" 1 (Database.row_count db "People");
  Alcotest.(check bool) "type mismatch rejected" true
    (try
       Database.insert db "People" [ [| Value.String "x"; Value.String "y"; Value.Null |] ];
       false
     with Database.Constraint_violation _ -> true);
  Alcotest.(check bool) "null in not-null rejected" true
    (try
       Database.insert db "People" [ [| Value.Null; Value.String "y"; Value.Null |] ];
       false
     with Database.Constraint_violation _ -> true);
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Database.insert db "People" [ [| Value.Int 2 |] ];
       false
     with Database.Constraint_violation _ -> true)

let test_duplicate_table_rejected () =
  let db = mkdb () in
  Alcotest.(check bool) "dup rejected" true
    (try
       Database.add_table db people_schema;
       false
     with Invalid_argument _ -> true)

let test_key_check () =
  let db = mkdb () in
  Database.load db "People"
    [
      [| Value.Int 1; Value.String "a"; Value.Null |];
      [| Value.Int 1; Value.String "b"; Value.Null |];
    ];
  Alcotest.(check int) "one duplicate" 1 (List.length (Database.check_integrity db))

let test_fk_check () =
  let db = mkdb () in
  Database.load db "People" [ [| Value.Int 1; Value.String "a"; Value.Null |] ];
  Database.load db "Pets"
    [
      [| Value.Int 10; Value.Int 1; Value.String "cat" |];
      [| Value.Int 11; Value.Int 99; Value.String "dog" |];
    ];
  Alcotest.(check int) "one dangling" 1 (List.length (Database.check_integrity db))

let test_inclusion_check () =
  let db = mkdb () in
  Database.load db "People" [ [| Value.Int 1; Value.String "a"; Value.Null |] ];
  Database.load db "Pets" [ [| Value.Int 10; Value.Int 1; Value.String "cat" |] ];
  let holds =
    { Schema.inc_table = "People"; inc_cols = [ "id" ]; inc_ref_table = "Pets";
      inc_ref_cols = [ "owner" ] }
  in
  Alcotest.(check bool) "every person has a pet" true (Database.check_inclusion db holds);
  Database.insert db "People" [ [| Value.Int 2; Value.String "b"; Value.Null |] ];
  Alcotest.(check bool) "no longer total" false (Database.check_inclusion db holds)

let test_declared_inclusions () =
  let db = mkdb () in
  let inc =
    { Schema.inc_table = "People"; inc_cols = [ "id" ]; inc_ref_table = "Pets";
      inc_ref_cols = [ "owner" ] }
  in
  Database.declare_inclusion db inc;
  Alcotest.(check int) "recorded" 1 (List.length (Database.inclusions db))

let test_to_relation_and_sizes () =
  let db = mkdb () in
  Database.load db "People" [ [| Value.Int 1; Value.String "ann"; Value.Null |] ];
  Alcotest.(check int) "rows" 1 (Database.row_count db "People");
  Alcotest.(check bool) "total rows" true (Database.total_rows db = 1);
  Alcotest.(check bool) "total bytes positive" true (Database.total_bytes db > 0);
  Alcotest.(check (list string)) "table names sorted" [ "People"; "Pets" ]
    (Database.table_names db)

(* Keys compare by Value.equal, as the engine's joins do.  Regressions:
   check_keys compared FLOAT keys by their %g text (6 significant
   digits), so two distinct prices read as one; the FK and inclusion
   checks used polymorphic hashing, so an INT 2 missed a FLOAT 2.0. *)
let prices_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "Price" ~key:[ "p" ] [ Schema.column "p" Value.TFloat ]);
  Database.add_table db
    (Schema.table "Order" ~key:[ "o" ]
       ~foreign_keys:[ { Schema.fk_cols = [ "p" ]; ref_table = "Price"; ref_cols = [ "p" ] } ]
       [ Schema.column "o" Value.TInt; Schema.column "p" Value.TInt ]);
  Database.load db "Price" [ [| Value.Float 32946.01 |]; [| Value.Float 32946.02 |];
                             [| Value.Float 2.0 |] ];
  Database.load db "Order" [ [| Value.Int 1; Value.Int 2 |] ];
  db

let test_float_keys_distinct () =
  let db = prices_db () in
  Alcotest.(check (list string)) "no duplicate" [] (Database.check_integrity db);
  Database.insert db "Price" [ [| Value.Float 32946.01 |] ];
  Alcotest.(check int) "a true duplicate" 1 (List.length (Database.check_integrity db))

let test_int_fk_to_float_key () =
  let db = prices_db () in
  Alcotest.(check (list string)) "2 references 2.0" [] (Database.check_integrity db);
  Database.insert db "Order" [ [| Value.Int 2; Value.Int 3 |] ];
  Alcotest.(check (list string)) "3 dangles" [ "Order: dangling FK (3) -> Price" ]
    (Database.check_integrity db)

let test_int_included_in_float () =
  let db = prices_db () in
  let inc =
    { Schema.inc_table = "Order"; inc_cols = [ "p" ]; inc_ref_table = "Price";
      inc_ref_cols = [ "p" ] }
  in
  Alcotest.(check bool) "2 is in {.., 2.0}" true (Database.check_inclusion db inc)

let suite =
  [
    Alcotest.test_case "schema helpers" `Quick test_schema_helpers;
    Alcotest.test_case "key columns must exist" `Quick test_schema_key_must_exist;
    Alcotest.test_case "insert typechecking" `Quick test_insert_typecheck;
    Alcotest.test_case "duplicate table rejected" `Quick test_duplicate_table_rejected;
    Alcotest.test_case "primary key check" `Quick test_key_check;
    Alcotest.test_case "foreign key check" `Quick test_fk_check;
    Alcotest.test_case "inclusion dependency check" `Quick test_inclusion_check;
    Alcotest.test_case "declared inclusions" `Quick test_declared_inclusions;
    Alcotest.test_case "to_relation and sizes" `Quick test_to_relation_and_sizes;
    Alcotest.test_case "FLOAT keys that print alike are distinct" `Quick
      test_float_keys_distinct;
    Alcotest.test_case "INT foreign key onto a FLOAT key" `Quick test_int_fk_to_float_key;
    Alcotest.test_case "INT inclusion in a FLOAT column" `Quick test_int_included_in_float;
  ]
