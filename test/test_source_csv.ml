(* Source-description files and CSV import/export. *)

open Relational

let desc_text =
  {|
# a bookstore
table Publisher {
  pubid int key
  name  string
  city  string null
}
table Book {
  bid   int key
  pubid int -> Publisher.pubid
  title string
  price float
  fk (bid, pubid) -> Shadow(bid, pubid)   # composite, for syntax coverage
}
table Shadow {
  bid   int key
  pubid int key
}
inclusion Publisher(pubid) <= Book(pubid)
|}

let test_parse_structure () =
  let d = Source_desc.parse desc_text in
  Alcotest.(check int) "three tables" 3 (List.length d.Source_desc.tables);
  Alcotest.(check int) "one inclusion" 1 (List.length d.Source_desc.inclusions);
  let book = List.find (fun (t : Schema.table) -> t.name = "Book") d.Source_desc.tables in
  Alcotest.(check int) "book columns" 4 (Schema.arity book);
  Alcotest.(check (list string)) "book key" [ "bid" ] book.Schema.key;
  Alcotest.(check int) "two FKs (single + composite)" 2
    (List.length book.Schema.foreign_keys);
  let pub = List.find (fun (t : Schema.table) -> t.name = "Publisher") d.Source_desc.tables in
  (match Schema.find_column pub "city" with
  | Some c -> Alcotest.(check bool) "city nullable" true c.Schema.nullable
  | None -> Alcotest.fail "city missing")

let test_round_trip () =
  let d = Source_desc.parse desc_text in
  let d2 = Source_desc.parse (Source_desc.to_string d) in
  Alcotest.(check string) "fixpoint" (Source_desc.to_string d) (Source_desc.to_string d2)

let test_to_database () =
  let db = Source_desc.load_database desc_text in
  Alcotest.(check (list string)) "tables" [ "Book"; "Publisher"; "Shadow" ]
    (Database.table_names db);
  Alcotest.(check int) "inclusion declared" 1 (List.length (Database.inclusions db))

let test_of_database_round_trip () =
  let db = Tpch.Gen.empty_database () in
  let d = Source_desc.of_database db in
  let db2 = Source_desc.to_database d in
  Alcotest.(check (list string)) "same tables" (Database.table_names db)
    (Database.table_names db2);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " arity")
        (Schema.arity (Database.schema db name))
        (Schema.arity (Database.schema db2 name)))
    (Database.table_names db)

let test_parse_errors () =
  let bad =
    [ "table X {"; "bogus line"; "table X {\n  a unknowntype\n}";
      "table X {\n  a int key\n}\ninclusion X(a) <= Y(b, c)" ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects: " ^ String.escaped text) true
        (try ignore (Source_desc.parse text); false
         with Source_desc.Syntax_error _ -> true))
    bad

(* --- CSV ------------------------------------------------------------- *)

let csv_db () =
  let db = Source_desc.load_database
      {|table T {
          id   int key
          name string
          note string null
          score float null
        }|}
  in
  db

(* The records of [text] as a two-string-column table loads them. *)
let records text =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "S" ~key:[]
       [ Schema.column "x" Value.TString; Schema.column "y" Value.TString ]);
  ignore (Csv.load ~header:false db "S" text);
  Database.raw_data db "S"
  |> Array.to_list
  |> List.map (fun r -> Array.to_list (Array.map Value.to_string r))

let test_csv_parse_rows () =
  Alcotest.(check (list (list string))) "basic"
    [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (records "a,b\nc,d\n");
  Alcotest.(check (list (list string))) "quotes and escapes"
    [ [ "a,b"; "say \"hi\"" ] ]
    (records "\"a,b\",\"say \"\"hi\"\"\"\n");
  Alcotest.(check (list (list string))) "crlf and embedded newline"
    [ [ "x"; "line1\nline2" ]; [ "y"; "z" ] ]
    (records "x,\"line1\nline2\"\r\ny,z\r\n")

let test_csv_load_typed () =
  let db = csv_db () in
  let n = Csv.load db "T" "id,name,note,score\n1,ann,,3.5\n2,bob,\"\",\n" in
  Alcotest.(check int) "two rows" 2 n;
  let rows = Database.raw_data db "T" in
  (* row 1: unquoted empty note -> NULL; score 3.5 *)
  Alcotest.(check bool) "null note" true (Value.is_null rows.(0).(2));
  Alcotest.(check bool) "score" true (Value.equal rows.(0).(3) (Value.Float 3.5));
  (* row 2: quoted empty note -> empty string; empty score -> NULL *)
  Alcotest.(check bool) "empty string note" true
    (Value.equal rows.(1).(2) (Value.String ""));
  Alcotest.(check bool) "null score" true (Value.is_null rows.(1).(3))

let test_csv_header_reorder_and_omit () =
  let db = csv_db () in
  let n = Csv.load db "T" "name,id\nann,1\nbob,2\n" in
  Alcotest.(check int) "two rows" 2 n;
  let rows = Database.raw_data db "T" in
  Alcotest.(check bool) "id placed" true (Value.equal rows.(0).(0) (Value.Int 1));
  Alcotest.(check bool) "omitted nullable is NULL" true (Value.is_null rows.(0).(2))

let test_csv_errors () =
  let db = csv_db () in
  Alcotest.(check bool) "bad int" true
    (try ignore (Csv.load db "T" "id,name\nxx,ann\n"); false
     with Csv.Csv_error _ -> true);
  Alcotest.(check bool) "unknown column" true
    (try ignore (Csv.load db "T" "id,bogus\n1,x\n"); false
     with Csv.Csv_error _ -> true);
  Alcotest.(check bool) "field count" true
    (try ignore (Csv.load db "T" "id,name\n1\n"); false
     with Csv.Csv_error _ -> true);
  Alcotest.(check bool) "missing NOT NULL" true
    (try ignore (Csv.load db "T" "id\n1\n"); false with Csv.Csv_error _ -> true)

let test_csv_error_diagnostics () =
  let db = csv_db () in
  (* a malformed cell names the source file, the row and the column *)
  let msg, row =
    try
      ignore
        (Csv.load ~source:"people.csv" db "T" "id,name\n1,ann\nxx,bob\n");
      ("", 0)
    with Csv.Csv_error (m, r) -> (m, r)
  in
  Alcotest.(check int) "1-based row (after header)" 3 row;
  let contains needle =
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg needle)
      true
      (let n = String.length needle and l = String.length msg in
       let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
       go 0)
  in
  contains "people.csv";
  contains "row 3";
  contains "column id";
  contains "\"xx\"";
  (* without a source, diagnostics still carry row and column *)
  (try ignore (Csv.load db "T" "id,name\n9999999999999999999999,x\n")
   with Csv.Csv_error (m, r) ->
     Alcotest.(check int) "row" 2 r;
     Alcotest.(check bool) "names column" true
       (String.length m > 0
       && (let needle = "column id" in
           let n = String.length needle and l = String.length m in
           let rec go i =
             i + n <= l && (String.sub m i n = needle || go (i + 1))
           in
           go 0)))

let test_csv_strict_numeric () =
  (* int_of_string's literal extensions are not CSV data: hex/octal/
     binary prefixes and underscore separators must be rejected for
     TInt and TDate alike *)
  let db () =
    Source_desc.load_database
      {|table U {
          id int key
          d  date
        }|}
  in
  let rejects what text =
    Alcotest.(check bool) what true
      (try
         ignore (Csv.load (db ()) "U" text);
         false
       with Csv.Csv_error _ -> true)
  in
  rejects "hex int" "id,d\n0x1F,1\n";
  rejects "underscore int" "id,d\n1_000,1\n";
  rejects "octal int" "id,d\n0o17,1\n";
  rejects "binary int" "id,d\n0b101,1\n";
  rejects "hex date" "id,d\n1,0x1F\n";
  rejects "underscore date" "id,d\n1,1_000\n";
  rejects "bare sign" "id,d\n+,1\n";
  rejects "trailing junk" "id,d\n12a,1\n";
  (* plain decimals, signed included, still load *)
  let db = db () in
  Alcotest.(check int) "decimal forms load" 2
    (Csv.load db "U" "id,d\n-12,1\n+13,2\n");
  let rows = Database.raw_data db "U" in
  Alcotest.(check bool) "negative value" true
    (Value.equal rows.(0).(0) (Value.Int (-12)))

let test_csv_export_round_trip () =
  let db = csv_db () in
  ignore
    (Csv.load db "T"
       "id,name,note,score\n1,\"a,b\",,0.25\n2,\"quote \"\"q\"\"\",\"\",\n");
  let text = Csv.export db "T" in
  let db2 = csv_db () in
  ignore (Csv.load db2 "T" text);
  Alcotest.(check bool) "round trip" true
    (Test_tpch.same_rows db db2 "T")

let test_csv_tpch_round_trip () =
  (* export/import a whole generated TPC-H database *)
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let db2 = Tpch.Gen.empty_database () in
  List.iter
    (fun name -> ignore (Csv.load db2 name (Csv.export db name)))
    (Database.table_names db);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " identical") true
        (Test_tpch.same_rows db db2 name))
    (Database.table_names db)

let suite =
  [
    Alcotest.test_case "source: parse structure" `Quick test_parse_structure;
    Alcotest.test_case "source: round trip" `Quick test_round_trip;
    Alcotest.test_case "source: to database" `Quick test_to_database;
    Alcotest.test_case "source: of_database round trip" `Quick test_of_database_round_trip;
    Alcotest.test_case "source: rejects malformed" `Quick test_parse_errors;
    Alcotest.test_case "csv: record parsing" `Quick test_csv_parse_rows;
    Alcotest.test_case "csv: typed load, NULL vs empty" `Quick test_csv_load_typed;
    Alcotest.test_case "csv: header reorder/omit" `Quick test_csv_header_reorder_and_omit;
    Alcotest.test_case "csv: error reporting" `Quick test_csv_errors;
    Alcotest.test_case "csv: error diagnostics name file/row/column" `Quick
      test_csv_error_diagnostics;
    Alcotest.test_case "csv: strict decimal ints and dates" `Quick
      test_csv_strict_numeric;
    Alcotest.test_case "csv: export round trip" `Quick test_csv_export_round_trip;
    Alcotest.test_case "csv: TPC-H round trip" `Quick test_csv_tpch_round_trip;
  ]
