(* End-to-end middleware: strategies, timing/accounting, timeouts, and
   lattice-matrix slices of the exhaustive plan-correctness sweep (the
   core soundness result). *)

open Silkroute
module R = Relational

let setup ?(scale = 0.15) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

(* every strategy's plan is a lattice point matching the truth *)
let test_materialize_strategies_agree () =
  let db = Matrix.tpch 0.15 in
  let p = (Matrix.truth Matrix.q1 db).p in
  let masks =
    List.map
      (fun strategy -> Partition.to_mask (Middleware.partition_of p strategy))
      [ Middleware.Unified; Middleware.Fully_partitioned; Middleware.Edges 37;
        Middleware.Greedy ]
  in
  Matrix.(check [ slice q1 db ~masks:(only masks) ])

let test_execution_accounting () =
  let db, p = setup Queries.query1_text in
  ignore db;
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  Alcotest.(check bool) "work positive" true (e.Middleware.work > 0);
  Alcotest.(check bool) "tuples positive" true (e.Middleware.tuples > 0);
  Alcotest.(check bool) "bytes positive" true (e.Middleware.bytes > 0);
  Alcotest.(check bool) "transfer positive" true (e.Middleware.transfer_ms > 0.0);
  Alcotest.(check bool) "total = query + transfer" true
    (abs_float
       (Middleware.total_wall_ms e
       -. (e.Middleware.query_wall_ms +. e.Middleware.transfer_ms))
    < 1e-9);
  Alcotest.(check int) "one SQL text" 1 (List.length e.Middleware.per_stream)

let test_stream_counts_by_strategy () =
  let db, p = setup Queries.query1_text in
  ignore db;
  let count s = List.length (Middleware.execute p (Middleware.partition_of p s)).Middleware.per_stream in
  Alcotest.(check int) "unified 1" 1 (count Middleware.Unified);
  Alcotest.(check int) "fully partitioned 10" 10 (count Middleware.Fully_partitioned);
  Alcotest.(check int) "mask 511 = unified" 1 (count (Middleware.Edges 511))

let test_timeout_raised () =
  let db, p = setup ~scale:0.5 Queries.query1_text in
  let backend = R.Backend.create ~budget:10 db in
  Alcotest.(check bool) "tiny budget times out" true
    (try
       ignore (Middleware.execute ~backend p (Partition.unified p.Middleware.tree));
       false
     with Middleware.Plan_timeout _ -> true)

let test_profile_affects_work () =
  let db, p = setup ~scale:0.5 Queries.query1_text in
  let plan = Partition.unified p.Middleware.tree in
  let default = (Middleware.execute p plan).Middleware.work in
  let backend =
    R.Backend.create ~profile:{ R.Executor.sort_buffer = 256; byte_div = 16 } db
  in
  let tiny_buffer = (Middleware.execute ~backend p plan).Middleware.work in
  Alcotest.(check bool) "smaller sort buffer costs more" true (tiny_buffer > default)

let test_more_streams_more_transfer_overhead () =
  let db, p = setup ~scale:0.5 Queries.query1_text in
  ignore db;
  let t strategy =
    (Middleware.execute p (Middleware.partition_of p strategy)).Middleware.transfer_ms
  in
  (* fully partitioned ships redundant ancestor keys over 10 streams *)
  Alcotest.(check bool) "fully partitioned ships more" true
    (t Middleware.Fully_partitioned > t Middleware.Unified)

(* Every plan against the naive truth, and a systematic subsample of
   the other variants. *)
let test_exhaustive view () =
  let open Matrix in
  let db = tpch 0.12 in
  check
    [ slice view db; slice view db ~masks:(every 16) ~points:[ oj_reduced; ou ] ]

let test_custom_non_tpch_schema () =
  (* a bookstore schema exercises the pipeline away from TPC-H *)
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "Author" ~key:[ "aid" ]
       [ R.Schema.column "aid" R.Value.TInt; R.Schema.column "name" R.Value.TString ]);
  R.Database.add_table db
    (R.Schema.table "Book" ~key:[ "bid" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "aid" ]; ref_table = "Author"; ref_cols = [ "aid" ] } ]
       [ R.Schema.column "bid" R.Value.TInt; R.Schema.column "aid" R.Value.TInt;
         R.Schema.column "title" R.Value.TString;
         R.Schema.column "price" R.Value.TFloat ]);
  let i n = R.Value.Int n and s x = R.Value.String x in
  R.Database.load db "Author" [ [| i 1; s "Knuth" |]; [| i 2; s "Dijkstra" |] ];
  R.Database.load db "Book"
    [ [| i 10; i 1; s "TAOCP"; R.Value.Float 99.0 |];
      [| i 11; i 1; s "Concrete Math"; R.Value.Float 50.0 |] ];
  let view =
    Matrix.of_text "library"
      {|view library { from Author $a construct
          <author><name>$a.name</name>
            { from Book $b where $a.aid = $b.aid
              construct <book>$b.title</book> } </author> }|}
  and db = Matrix.database "bookstore" (fun () -> db) in
  Matrix.(check [ slice view db ]);
  let truth = (Matrix.truth view db).doc in
  (* Dijkstra has no books but must appear *)
  let authors = Xmlkit.Xml.children_named (Xmlkit.Xml.root truth) "author" in
  Alcotest.(check int) "both authors" 2 (List.length authors)

let test_non_equi_join_condition () =
  (* a view with a filter condition (not a pure equi-join) *)
  let view =
    Matrix.of_text "non-equi"
      {|view v { from Supplier $s construct <supplier><name>$s.name</name>
          { from PartSupp $ps, Part $p
            where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey,
                  $ps.availqty >= 5000
            construct <bigpart>$p.name</bigpart> } </supplier> }|}
  in
  Matrix.(check [ slice view (tpch 0.2) ])

(* Regression: `run --strategy edges:abc` escaped as Failure
   "int_of_string"; every bad strategy is now an Invalid_argument. *)
let test_strategy_of_string () =
  List.iter
    (fun s ->
      match Middleware.strategy_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%S accepted" s)
    [ "edges:abc"; "edges:-1"; "edges:"; "bogus"; "" ];
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) text want
        (Middleware.strategy_name (Middleware.strategy_of_string text)))
    [
      ("unified", "unified"); ("partitioned", "fully-partitioned");
      ("Fully-Partitioned", "fully-partitioned"); ("GREEDY", "greedy");
      ("edges:37", "edges:37");
    ]

let suite =
  [
    Alcotest.test_case "strategies agree" `Quick test_materialize_strategies_agree;
    Alcotest.test_case "execution accounting" `Quick test_execution_accounting;
    Alcotest.test_case "stream counts" `Quick test_stream_counts_by_strategy;
    Alcotest.test_case "plan timeout" `Quick test_timeout_raised;
    Alcotest.test_case "profile affects work" `Quick test_profile_affects_work;
    Alcotest.test_case "transfer overhead by streams" `Quick test_more_streams_more_transfer_overhead;
    Alcotest.test_case "non-TPC-H schema" `Quick test_custom_non_tpch_schema;
    Alcotest.test_case "exhaustive 512 plans (Query 1)" `Slow
      (test_exhaustive Matrix.q1);
    Alcotest.test_case "exhaustive 512 plans (Query 2)" `Slow
      (test_exhaustive Matrix.q2);
    Alcotest.test_case "non-equi-join condition" `Quick test_non_equi_join_condition;
    Alcotest.test_case "regression: bad strategy is Invalid_argument" `Quick
      test_strategy_of_string;
  ]
