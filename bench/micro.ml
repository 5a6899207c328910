(* Bechamel micro-benchmarks: one Test.make per reproduced table/figure,
   timing the code path that regenerates it (at reduced input sizes so
   the suite stays quick). *)

module R = Relational
module Sk = Silkroute
open Bechamel
open Toolkit

let db = lazy (Tpch.Gen.generate (Tpch.Gen.config 0.3))
let prepared = lazy (Sk.Middleware.prepare_text (Lazy.force db) Sk.Queries.query1_text)

let t_table1 =
  (* Table 1: database generation *)
  Test.make ~name:"table1:tpch-generate"
    (Staged.stage (fun () -> ignore (Tpch.Gen.generate (Tpch.Gen.config 0.1))))

let t_sec2 =
  (* Sec. 2 table: one unified execution *)
  Test.make ~name:"sec2:unified-plan"
    (Staged.stage (fun () ->
         let p = Lazy.force prepared in
         ignore (Sk.Middleware.execute p (Sk.Partition.unified p.Sk.Middleware.tree))))

let t_fig13 =
  (* Fig. 13: per-plan pipeline = SQL generation + execution + tagging *)
  Test.make ~name:"fig13:plan-pipeline"
    (Staged.stage (fun () ->
         let p = Lazy.force prepared in
         let e = Sk.Middleware.execute p (Sk.Partition.of_mask p.Sk.Middleware.tree 37) in
         ignore (Sk.Middleware.xml_string_of p e)))

let t_fig13_stream =
  (* the same per-plan pipeline through the streaming path: cursors,
     spooled sub-query results, heap merge, the string writer *)
  Test.make ~name:"fig13:plan-pipeline-streaming"
    (Staged.stage (fun () ->
         let p = Lazy.force prepared in
         let e =
           Sk.Middleware.execute ~spool:true p
             (Sk.Partition.of_mask p.Sk.Middleware.tree 37)
         in
         ignore (Sk.Middleware.xml_string_of p e)))

let t_fig14 =
  (* Fig. 14: the reduced variant of the same pipeline *)
  Test.make ~name:"fig14:reduced-pipeline"
    (Staged.stage (fun () ->
         let p = Lazy.force prepared in
         ignore (Sk.Middleware.execute ~reduce:true p
                   (Sk.Partition.of_mask p.Sk.Middleware.tree 37))))

(* Merge-tag alone: q1 fully partitioned (10 streams) at scale 1 is
   executed once, outside the timed function; each run tags fresh cursors
   over the same in-heap rows to a string. *)
let merge_input =
  lazy
    (let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
     let p = Sk.Middleware.prepare_text db Sk.Queries.query1_text in
     (p, Sk.Middleware.execute p (Sk.Partition.fully_partitioned p.Sk.Middleware.tree)))

let t_tag_merge =
  Test.make ~name:"tag:merge"
    (Staged.stage (fun () ->
         let p, e = Lazy.force merge_input in
         ignore (Sk.Tagger.to_string_cursors p.Sk.Middleware.tree (Sk.Middleware.cursors e))))

let t_fig15 =
  (* Fig. 15: one greedy planning run (cost estimation only) *)
  Test.make ~name:"fig15:genPlan"
    (Staged.stage (fun () ->
         ignore (Sk.Middleware.gen_plan (Lazy.force prepared) ~reduce:false)))

let t_fig18 =
  (* Fig. 18: view-tree construction + labeling, the planner's input *)
  Test.make ~name:"fig18:prepare-view"
    (Staged.stage (fun () ->
         ignore (Sk.Middleware.prepare_text (Lazy.force db) Sk.Queries.query2_text)))

(* Event emission sits inside spans on the hot path, so its unit cost
   bounds the diagnostics overhead, as [obs:span-enabled] bounds a
   traced span's.  The disabled variants prove the envelope still holds
   when tracing is off: both an un-recorded event and an un-opened span
   are one boolean test. *)
let t_event_emit =
  Test.make ~name:"obs:event-emit-enabled"
    (Staged.stage (fun () ->
         Obs.Control.with_enabled true (fun () ->
             for i = 0 to 4095 do
               Obs.Event.debug "bench.tick" ~attrs:[ Obs.Attr.int "i" i ]
             done;
             Obs.Event.reset ())))

let t_event_disabled =
  Test.make ~name:"obs:event-emit-disabled"
    (Staged.stage (fun () ->
         Obs.Control.with_enabled false (fun () ->
             for i = 0 to 4095 do
               Obs.Event.debug "bench.tick" ~attrs:[ Obs.Attr.int "i" i ]
             done)))

(* The whole-program GC snapshot, taken once per profiled run, and per
   request while a slow-query threshold is set; never per span. *)
let t_gc_quickstat =
  Test.make ~name:"obs:gc-quick-stat"
    (Staged.stage (fun () ->
         for _ = 0 to 4095 do
           ignore (Gc.quick_stat ())
         done))

(* One traced span around an empty thunk: its open and close, GC
   readings included.  The log is reset each run, so it holds one span
   and memory stays bounded. *)
let t_span_enabled =
  Test.make ~name:"obs:span-enabled"
    (Staged.stage (fun () ->
         Obs.Control.with_enabled true (fun () ->
             Obs.Span.with_span "bench.span" (fun () -> ());
             Obs.Span.reset ())))

let t_span_disabled =
  Test.make ~name:"obs:span-disabled"
    (Staged.stage (fun () ->
         Obs.Control.with_enabled false (fun () ->
             for _ = 0 to 4095 do
               Obs.Span.with_span "bench.span" (fun () -> ())
             done)))

(* Compiled vs interpreted expressions: the same moderately deep
   predicate over 4096 rows, paid as the operators pay it — the
   interpreted side re-walks the tree per row, the compiled side builds
   the closure once per 4096-row block (the once-per-operator pattern)
   and then pays only closure calls. *)
let expr_rows : R.Tuple.t array =
  let state = ref 42 in
  let next () =
    state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
    !state
  in
  Array.init 4096 (fun _ ->
      [|
        R.Value.Int (next () mod 1000);
        R.Value.Int (next () mod 1000);
        (if next () mod 7 = 0 then R.Value.Null
         else R.Value.String (string_of_int (next () mod 97)));
      |])

let expr_bench : R.Expr.resolved =
  R.Expr.(
    R_and
      ( R_cmp (Lt, R_col 0, R_col 1),
        R_or
          ( R_cmp (Le, R_arith (Add, R_col 1, R_lit (R.Value.Int 3)),
                   R_lit (R.Value.Int 500)),
            R_is_null (R_col 2) ) ))

let t_expr_interpreted =
  Test.make ~name:"expr:interpreted"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         Array.iter
           (fun t -> if R.Expr.eval_pred expr_bench t then incr acc)
           expr_rows;
         ignore !acc))

let t_expr_compiled =
  Test.make ~name:"expr:compiled"
    (Staged.stage (fun () ->
         let p = R.Expr.compile_pred expr_bench in
         let acc = ref 0 in
         Array.iter (fun t -> if p t then incr acc) expr_rows;
         ignore !acc))

(* Plan execution, one bench per physical operator shape.  The joins
   bracket the join probe: [join] accepts every candidate it probes,
   [join-reject] is the outer-union shape of the paper's unified plans —
   a left-outer join onto a discriminated UNION ALL whose OR-expanded ON
   rejects most of its candidates (it keeps 3,734 of 18,774 at scale
   0.3) — [join-build] probes a 25-row left side into all of LineItem
   on a two-column key, so indexing the right side is most of its time,
   and [join-project] is the outer-union shape whose joined rows are
   wide (13 columns, each LineItem row matching its copy on five
   columns and its order on one) while the projection above the join
   keeps 7, two of them literals. *)
let op_plans =
  lazy
    (let db = Lazy.force db in
     List.map
       (fun (name, sql) -> (name, R.Physical.plan_of db (R.Sql_parser.parse sql)))
       [
         ("scan", "SELECT suppkey, name, nationkey FROM Supplier");
         ( "filter",
           "SELECT suppkey FROM Supplier WHERE suppkey < 5000 AND nationkey > 2"
         );
         ( "join",
           "SELECT Supplier.suppkey, Nation.name FROM Supplier, Nation WHERE \
            Supplier.nationkey = Nation.nationkey" );
         ( "join-reject",
           "SELECT l.orderkey AS orderkey, u.d AS d, u.k AS k FROM LineItem \
            AS l LEFT OUTER JOIN ((SELECT 1 AS d, s.suppkey AS k, s.nationkey \
            AS n FROM Supplier AS s) UNION ALL (SELECT 2 AS d, l2.suppkey AS \
            k, l2.partkey AS n FROM LineItem AS l2)) AS u ON (((u.d = 1) AND \
            (l.suppkey = u.k)) OR (((u.d = 2) AND (l.suppkey = u.k)) AND \
            (l.partkey = u.n)))" );
         ( "join-build",
           "SELECT n.name AS name, l.orderkey AS orderkey, l.lno AS lno FROM \
            Nation AS n LEFT OUTER JOIN LineItem AS l ON ((n.nationkey = \
            l.orderkey) AND (n.regionkey = l.lno))" );
         ( "join-project",
           "SELECT 1 AS L1, l.orderkey AS orderkey, l.lno AS lno, u.d AS d, \
            u.c AS c, u.s AS s, NULL AS x FROM LineItem AS l LEFT OUTER JOIN \
            ((SELECT 1 AS d, l2.orderkey AS o, l2.partkey AS p, l2.suppkey AS \
            k, l2.lno AS n, l2.qty AS q, NULL AS c, NULL AS s FROM LineItem AS \
            l2) UNION ALL (SELECT 2 AS d, o.orderkey AS o, NULL AS p, NULL AS \
            k, NULL AS n, NULL AS q, o.custkey AS c, o.status AS s FROM Orders \
            AS o)) AS u ON ((((((u.d = 1) AND (l.orderkey = u.o)) AND \
            (l.partkey = u.p)) AND (l.suppkey = u.k)) AND ((l.lno = u.n) AND \
            (l.qty = u.q))) OR ((u.d = 2) AND (l.orderkey = u.o)))" );
         ( "sort",
           "SELECT suppkey, name FROM Supplier ORDER BY name DESC, suppkey" );
         ("sort-presorted", "SELECT suppkey, name FROM Supplier ORDER BY suppkey");
       ])

let exec_op_tests =
  lazy
    (let db = Lazy.force db in
     List.map
       (fun (name, plan) ->
         Test.make ~name:(Printf.sprintf "exec:%s" name)
           (Staged.stage (fun () ->
                ignore (R.Executor.run_plan_with_stats db plan))))
       (Lazy.force op_plans))

let all_tests =
  lazy
    (Test.make_grouped ~name:"silkroute" ~fmt:"%s/%s"
       ([
          t_table1; t_sec2; t_fig13; t_fig13_stream; t_fig14; t_fig15; t_fig18;
          t_event_emit; t_event_disabled;
          t_gc_quickstat; t_span_enabled; t_span_disabled; t_expr_interpreted; t_expr_compiled;
          t_tag_merge;
        ]
       @ Lazy.force exec_op_tests))

let run () =
  Printf.printf "\nBechamel micro-benchmarks (one per reproduced artifact)\n";
  Printf.printf "%s\n" (String.make 56 '=');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Lazy.force all_tests) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
        List.iter
          (fun (name, ols) ->
            match Analyze.OLS.estimates ols with
            | Some (est :: _) ->
                Printf.printf "%-32s %12.1f ns/run\n" name est
            | _ -> Printf.printf "%-32s %12s\n" name "n/a")
          (List.sort compare rows))
    merged
