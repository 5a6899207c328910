(* End-to-end middleware: strategies, timing/accounting, timeouts, and
   the exhaustive plan-correctness sweep (the core soundness result). *)

open Silkroute
module R = Relational

let setup ?(scale = 0.15) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

let test_materialize_strategies_agree () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.15) in
  let view = Queries.query1 () in
  let p = Middleware.prepare db view in
  let docs =
    List.map
      (fun strategy ->
        Middleware.document_of p
          (Middleware.execute p (Middleware.partition_of p strategy)))
      [ Middleware.Unified; Middleware.Fully_partitioned; Middleware.Edges 37;
        Middleware.Greedy Planner.default_params ]
  in
  match docs with
  | d :: rest ->
      List.iteri
        (fun i d' ->
          Alcotest.(check bool) (Printf.sprintf "strategy %d agrees" i) true
            (Xmlkit.Xml.equal d d'))
        rest
  | [] -> Alcotest.fail "no docs"

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

let exhaustive_sweep text =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.12) in
  let p = Middleware.prepare_text db text in
  let truth = Middleware.materialize_naive p in
  List.iter
    (fun mask ->
      let plan = Partition.of_mask p.Middleware.tree mask in
      let e = Middleware.execute p plan in
      if not (Xmlkit.Xml.equal (Middleware.document_of p e) truth) then
        Alcotest.failf "plan %d (outer-join) diverges" mask;
      if mask mod 16 = 0 then begin
        (* a systematic subsample of the three variants *)
        let er = Middleware.execute ~reduce:true p plan in
        if not (Xmlkit.Xml.equal (Middleware.document_of p er) truth) then
          Alcotest.failf "plan %d (reduced) diverges" mask;
        let eu = Middleware.execute ~style:Sql_gen.Outer_union p plan in
        if not (Xmlkit.Xml.equal (Middleware.document_of p eu) truth) then
          Alcotest.failf "plan %d (outer-union) diverges" mask
      end)
    (Partition.all_masks p.Middleware.tree)

let test_exhaustive_q1 () = exhaustive_sweep Queries.query1_text
let test_exhaustive_q2 () = exhaustive_sweep Queries.query2_text

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
  let p =
    Middleware.prepare_text db
      {|view library { from Author $a construct
          <author><name>$a.name</name>
            { from Book $b where $a.aid = $b.aid
              construct <book>$b.title</book> } </author> }|}
  in
  let truth = Middleware.materialize_naive p in
  List.iter
    (fun mask ->
      let e = Middleware.execute p (Partition.of_mask p.Middleware.tree mask) in
      Alcotest.(check bool) (Printf.sprintf "mask %d" mask) true
        (Xmlkit.Xml.equal (Middleware.document_of p e) truth))
    (Partition.all_masks p.Middleware.tree);
  (* Dijkstra has no books but must appear *)
  let authors = Xmlkit.Xml.children_named (Xmlkit.Xml.root truth) "author" in
  Alcotest.(check int) "both authors" 2 (List.length authors)

let test_non_equi_join_condition () =
  (* a view with a filter condition (not a pure equi-join) *)
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let p =
    Middleware.prepare_text db
      {|view v { from Supplier $s construct <supplier><name>$s.name</name>
          { from PartSupp $ps, Part $p
            where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey,
                  $ps.availqty >= 5000
            construct <bigpart>$p.name</bigpart> } </supplier> }|}
  in
  let truth = Middleware.materialize_naive p in
  List.iter
    (fun mask ->
      let e = Middleware.execute p (Partition.of_mask p.Middleware.tree mask) in
      Alcotest.(check bool) (Printf.sprintf "mask %d" mask) true
        (Xmlkit.Xml.equal (Middleware.document_of p e) truth))
    (Partition.all_masks p.Middleware.tree)

let suite =
  [
    Alcotest.test_case "strategies agree" `Quick test_materialize_strategies_agree;
    Alcotest.test_case "execution accounting" `Quick test_execution_accounting;
    Alcotest.test_case "stream counts" `Quick test_stream_counts_by_strategy;
    Alcotest.test_case "plan timeout" `Quick test_timeout_raised;
    Alcotest.test_case "profile affects work" `Quick test_profile_affects_work;
    Alcotest.test_case "transfer overhead by streams" `Quick test_more_streams_more_transfer_overhead;
    Alcotest.test_case "non-TPC-H schema" `Quick test_custom_non_tpch_schema;
    Alcotest.test_case "exhaustive 512 plans (Query 1)" `Slow test_exhaustive_q1;
    Alcotest.test_case "exhaustive 512 plans (Query 2)" `Slow test_exhaustive_q2;
    Alcotest.test_case "non-equi-join condition" `Quick test_non_equi_join_condition;
  ]
