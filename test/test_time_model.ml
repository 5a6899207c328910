(* The planner's time model: per-operator clocks in the executor, the
   committed weights, and greedy genPlan priced in predicted time. *)

open Silkroute
module R = Relational

let i n = R.Value.Int n

(* A three-branch union whose level tag L holds 1, 2 and 3, joined as
   the left input, so no branch-by-branch pricing hides the merged
   column: its NDV must count all three constants. *)
let union_db () =
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "T" ~key:[ "x" ]
       [ R.Schema.column "x" R.Value.TInt; R.Schema.column "r" R.Value.TInt ]);
  R.Database.load db "T" (List.init 600 (fun k -> [| i k; i (k mod 100) |]));
  (* E.k: ten rows, all 2 *)
  R.Database.add_table db (R.Schema.table "E" ~key:[] [ R.Schema.column "k" R.Value.TInt ]);
  R.Database.load db "E" (List.init 10 (fun _ -> [| i 2 |]));
  (* D.k: 6,000 rows, ten per value of T.x *)
  R.Database.add_table db (R.Schema.table "D" ~key:[] [ R.Schema.column "k" R.Value.TInt ]);
  R.Database.load db "D" (List.init 6000 (fun k -> [| i (k mod 600) |]));
  db

let union_sql =
  "(SELECT 1 AS L, t.x AS x FROM T AS t UNION ALL SELECT 2 AS L, t.x AS x \
   FROM T AS t UNION ALL SELECT 3 AS L, t.x AS x FROM T AS t) AS u"

(* The estimated rows of the query's (only) join. *)
let join_rows db text =
  let plan = R.Physical.plan_of db (R.Sql_parser.parse text) in
  let _, est = R.Cost.annotate (R.Stats.analyze db) plan in
  let rows = ref nan in
  R.Physical.iter
    (fun n ->
      match n.R.Physical.shape with
      | R.Physical.Join _ -> rows := est.R.Physical.rows.(n.R.Physical.id)
      | _ -> ())
    plan;
  !rows

let test_union_level_ndv () =
  let db = union_db () in
  (* 1,800 union rows x 10 E rows / max(ndv L = 3, ndv k = 1) *)
  Alcotest.(check (float 1e-6)) "L has ndv 3" 6000.0
    (join_rows db ("SELECT u.x AS x FROM " ^ union_sql ^ " JOIN E AS e ON u.L = e.k"));
  (* an outer join keeps the left-only conjunct in ON:
     1,800 x 6,000 x 1/600 (x = k) x 1/3 (L = 2) *)
  Alcotest.(check (float 1e-6)) "L = 2 selects 1/3" 6000.0
    (join_rows db
       ("SELECT u.x AS x FROM " ^ union_sql
      ^ " LEFT OUTER JOIN D AS d ON u.L = 2 AND u.x = d.k"));
  (* a constant the union does not hold selects nothing: the outer
     join keeps its left rows *)
  Alcotest.(check (float 1e-6)) "L = 4 selects none" 1800.0
    (join_rows db
       ("SELECT u.x AS x FROM " ^ union_sql
      ^ " LEFT OUTER JOIN D AS d ON u.L = 4 AND u.x = d.k"))

let test_weights_finite_nonnegative () =
  let m = R.Cost.time_model in
  List.iter
    (fun (name, w) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g is finite and >= 0" name w)
        true
        (Float.is_finite w && w >= 0.0))
    [
      ("scan_row", m.scan_row); ("build_row", m.build_row); ("probe", m.probe);
      ("test", m.test); ("emit_row", m.emit_row); ("emit_byte", m.emit_byte);
      ("sort_row", m.sort_row); ("stream", m.stream); ("tag_tuple", m.tag_tuple);
      ("tag_byte", m.tag_byte);
    ]

let scale1 = lazy (Tpch.Gen.generate (Tpch.Gen.config 1.0))

let views =
  [ ("q1", Queries.query1_text); ("q2", Queries.query2_text); ("q3", Queries.query3_text) ]

(* Every stream of every lattice point, both reductions, distinct SQL
   text once. *)
let test_every_stream_priced () =
  let db = Lazy.force scale1 in
  let stats = R.Stats.analyze db in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (name, text) ->
      let p = Middleware.prepare_text db text in
      List.iter
        (fun reduce ->
          let opts =
            { Sql_gen.style = Sql_gen.Outer_join;
              labels = (if reduce then Some p.Middleware.labels else None) }
          in
          List.iter
            (fun mask ->
              List.iter
                (fun (s : Sql_gen.stream) ->
                  let sql = R.Sql_print.to_string s.Sql_gen.query in
                  if not (Hashtbl.mem seen sql) then begin
                    Hashtbl.add seen sql ();
                    let e, _ =
                      R.Cost.annotate stats (R.Physical.plan_of db s.Sql_gen.query)
                    in
                    let t = R.Cost.time_cost ~a:1.0 ~b:1.0 e in
                    if not (Float.is_finite e.R.Cost.ms && e.R.Cost.ms > 0.0
                            && Float.is_finite t && t > 0.0) then
                      Alcotest.failf "%s mask %d: predicted %g ms (%g with tagging)"
                        name mask e.R.Cost.ms t
                  end)
                (Sql_gen.streams db p.Middleware.tree
                   (Partition.of_mask p.Middleware.tree mask) opts))
            (Partition.all_masks p.Middleware.tree))
        [ false; true ])
    views;
  Alcotest.(check bool) "streams priced" true (Hashtbl.length seen > 100)

let test_greedy_deterministic () =
  let db = Lazy.force scale1 in
  List.iter
    (fun (name, text) ->
      let p = Middleware.prepare_text db text in
      List.iter
        (fun reduce ->
          let pick () =
            let r =
              Planner.gen_plan ~reduce db (R.Cost.oracle_with_stats db (R.Stats.analyze db)) p.Middleware.tree
                p.Middleware.labels Planner.default_params
            in
            Partition.to_mask (Planner.best_plan p.Middleware.tree r)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s reduce=%b: same mask" name reduce)
            (pick ()) (pick ()))
        [ false; true ])
    views

(* The operators' own times are measured inside the [executor] stage,
   which also drains the rows; they account for at least 70% of it and
   never more, traced or not. *)
let test_node_ms_sum_to_executor_stage () =
  let db = Lazy.force scale1 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let plan = Partition.unified p.Middleware.tree in
  List.iter
    (fun traced ->
      Obs.Control.with_enabled traced (fun () ->
          let clock = Obs.Stage.clock () in
          let e =
            Obs.Span.with_request ~trace_id:"t-time" ~sampled:traced clock (fun () ->
                Middleware.execute p plan)
          in
          let nodes =
            List.fold_left
              (fun acc (se : Middleware.stream_exec) ->
                Array.fold_left
                  (fun acc ns -> if ns > 0 then acc + ns else acc)
                  acc se.Middleware.se_stats.R.Executor.actuals.R.Physical.ns)
              0 e.Middleware.per_stream
          in
          let stage = Obs.Stage.ns clock Obs.Stage.Executor in
          let ratio = float_of_int nodes /. float_of_int stage in
          Alcotest.(check bool)
            (Printf.sprintf "traced=%b: nodes %.3f ms of executor %.3f ms (%.2f) in [0.7, 1]"
               traced (float_of_int nodes /. 1e6) (float_of_int stage /. 1e6) ratio)
            true
            (ratio >= 0.7 && ratio <= 1.0)))
    [ false; true ];
  Obs.Span.reset ();
  Obs.Event.reset ()

let suite =
  [
    Alcotest.test_case "union of three level tags: ndv 3, L = 2 selects 1/3" `Quick
      test_union_level_ndv;
    Alcotest.test_case "committed weights are finite and non-negative" `Quick
      test_weights_finite_nonnegative;
    Alcotest.test_case "every q1-q3 stream at scale 1 has a positive predicted ms"
      `Quick test_every_stream_priced;
    Alcotest.test_case "greedy: same mask from two fresh oracles" `Quick
      test_greedy_deterministic;
    Alcotest.test_case "per-node ms sum to the executor stage" `Quick
      test_node_ms_sum_to_executor_stage;
  ]
