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

(* The admission estimate prices the plans [run] runs: over q1-q3, both
   reductions and every kind of strategy it equals the sum of the cost
   oracle's answers on the generated SQL (the route the estimate once
   took, re-planning each AST), float for float, every stream that runs
   ships exactly the printed text of its generated query, and a second
   run of the same planned streams gives the same bytes and work. *)
let test_estimate_prices_run_plans () =
  let db = Lazy.force (Matrix.tpch 0.1).Matrix.db in
  List.iter
    (fun text ->
      let p = Middleware.prepare_text db text in
      let stats = Lazy.force p.Middleware.stats in
      let edges = View_tree.edge_count p.Middleware.tree in
      let rng = Random.State.make [| 39 |] in
      let strategies =
        [ Middleware.Unified; Middleware.Fully_partitioned; Middleware.Greedy ]
        @ List.init 6 (fun _ ->
              Middleware.Edges (Random.State.int rng (1 lsl edges)))
      in
      List.iter
        (fun reduce ->
          List.iter
            (fun strategy ->
              let name =
                Printf.sprintf "%s reduce=%b" (Middleware.strategy_name strategy)
                  reduce
              in
              let partition = Middleware.partition_of ~reduce p strategy in
              let streams =
                Sql_gen.streams db p.Middleware.tree partition
                  {
                    Sql_gen.style = Sql_gen.Outer_join;
                    labels = (if reduce then Some p.Middleware.labels else None);
                  }
              in
              let oracle = R.Cost.oracle_with_stats db stats in
              let asked =
                List.fold_left
                  (fun acc (s : Sql_gen.stream) ->
                    acc +. (R.Cost.ask oracle s.Sql_gen.query).R.Cost.eval_cost)
                  0.0 streams
              in
              let planned = Middleware.plan_streams ~reduce p partition in
              Alcotest.(check (float 0.0))
                (name ^ ": estimate") asked
                (Middleware.estimated_cost planned);
              let e = Middleware.run planned in
              Alcotest.(check (list string))
                (name ^ ": texts that ran")
                (List.map
                   (fun (s : Sql_gen.stream) -> R.Sql_print.to_string s.Sql_gen.query)
                   streams)
                (List.map (fun se -> se.Middleware.se_sql) e.Middleware.per_stream);
              (* nothing a run does changes what was planned *)
              let again = Middleware.run planned in
              Alcotest.(check (pair string int))
                (name ^ ": second run")
                (Middleware.xml_string_of p e, e.Middleware.work)
                (Middleware.xml_string_of p again, again.Middleware.work))
            strategies)
        [ true; false ])
    [ Queries.query1_text; Queries.query2_text; Queries.query3_text ]

(* A plan needs only the database: one [planned] value of q1 at scale
   0.1, greedy unreduced or fully partitioned, runs on the default
   connection, spooled, on a 2-domain pool, under faults with retries
   and splits, and under a budget that forces degradation, and each run
   equals [execute] on a fresh plan with the same connection, down to
   the bits of the modeled transfer and the resilience record. *)
let test_one_plan_every_connection () =
  let db = Lazy.force (Matrix.tpch 0.1).Matrix.db in
  let p = Middleware.prepare_text db Queries.query1_text in
  (* the heaviest single-node stream's work: every leaf fits, and
     greedy's heaviest stream must split *)
  let budget =
    let e = Middleware.execute p (Partition.fully_partitioned p.tree) in
    List.fold_left
      (fun acc (se : Middleware.stream_exec) -> max acc se.se_stats.R.Executor.work)
      0 e.per_stream
  in
  let faulted () =
    Some (R.Backend.create ~faults:(R.Backend.faults ~seed:14 0.3) ~retries:8 db)
  in
  let over_budget () = Some (R.Backend.create ~budget db) in
  let outcome (e : Middleware.execution) =
    ( Middleware.xml_string_of p e,
      (e.work, e.tuples, e.bytes, Int64.bits_of_float e.transfer_ms),
      (e.resilience, e.degraded) )
  in
  R.Domain_pool.with_pool ~domains:2 @@ fun two ->
  List.iter
    (fun strategy ->
      let partition = Middleware.partition_of ~reduce:false p strategy in
      let planned = Middleware.plan_streams ~reduce:false p partition in
      List.iter
        (fun (name, backend, max_splits, spool, pool) ->
          let label = Middleware.strategy_name strategy ^ ", " ^ name in
          let once =
            outcome
              (Middleware.run ?backend:(backend ()) ?max_splits ?spool ?pool
                 planned)
          and fresh =
            outcome
              (Middleware.execute ~reduce:false ?backend:(backend ()) ?max_splits
                 ?spool ?pool p partition)
          in
          if once <> fresh then
            Alcotest.failf "%s: the planned run differs from execute" label;
          (* the connection is the one passed: its faults fire, and its
             budget splits greedy's heaviest stream *)
          let _, _, (st, degraded) = once in
          if name = "faults" && R.Backend.total_faults st = 0 then
            Alcotest.failf "%s: no fault fired" label;
          if name = "budget" && strategy = Middleware.Greedy && degraded = 0
          then Alcotest.failf "%s: the budget forced no degradation" label)
        [
          ("default", (fun () -> None), None, None, None);
          ("spooled", (fun () -> None), None, Some true, None);
          ("2 domains", (fun () -> None), None, None, Some two);
          ("faults", faulted, Some 8, None, None);
          ("budget", over_budget, Some 8, None, None);
        ])
    [ Middleware.Greedy; Middleware.Fully_partitioned ]

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
    Alcotest.test_case "admission estimate prices the plans that run" `Quick
      test_estimate_prices_run_plans;
    Alcotest.test_case "one plan runs under every connection" `Quick
      test_one_plan_every_connection;
  ]
