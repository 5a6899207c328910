(* Cost-oracle calibration tolerances.  [Cost.annotate] prices the same
   physical plan the executor runs, so estimates and meter readings are
   comparable per operator (read side by side through
   [Physical.diagnose_samples]).  The bounds sit just above what the
   key- and FK-aware estimator achieves on these plans (whole-stream
   q-error at most 1.29, geo-mean 1.09; per-operator rows at most
   1.02), so they fail the suite if the oracle drifts from the engine
   (e.g. a charge formula changes on one side only, or a join is priced
   off its keys again). *)

open Silkroute
module R = Relational

(* Every (stream, per-operator samples, estimate, meter) of the unified
   and fully partitioned plans of q1/q2, outer-join style, both reduce
   modes. *)
let annotated_plans () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let stats = R.Stats.analyze db in
  List.concat_map
    (fun (qname, text) ->
      let p = Middleware.prepare_text db text in
      let tree = p.Middleware.tree in
      List.concat_map
        (fun reduce ->
          let opts =
            {
              Sql_gen.style = Sql_gen.Outer_join;
              labels = (if reduce then Some p.Middleware.labels else None);
            }
          in
          List.concat_map
            (fun (pname, plan) ->
              List.mapi
                (fun i s ->
                  let phys = R.Physical.plan_of db s.Sql_gen.query in
                  let est, ests = R.Cost.annotate stats phys in
                  let _, st = R.Executor.run_plan_with_stats db phys in
                  let ctx =
                    Printf.sprintf "%s %s reduce=%b stream=%d" qname pname
                      reduce i
                  in
                  let samples =
                    R.Physical.diagnose_samples ~stream:ctx phys ests
                      st.R.Executor.actuals
                  in
                  (ctx, samples, est, st))
                (Sql_gen.streams db tree plan opts))
            [
              ("unified", Partition.unified tree);
              ("fully", Partition.fully_partitioned tree);
            ])
        [ false; true ])
    [ ("q1", Queries.query1_text); ("q2", Queries.query2_text) ]

let test_scans_exact () =
  List.iter
    (fun (ctx, samples, _, _) ->
      List.iter
        (fun (d : Obs.Diagnose.sample) ->
          if d.d_op = "scan" then
            Alcotest.(check int)
              (Printf.sprintf "%s: scan node %d rows exact" ctx d.d_node)
              d.d_act_rows (int_of_float d.d_est_rows))
        samples)
    (annotated_plans ())

let test_stream_totals () =
  let plans = annotated_plans () in
  let sum_log = ref 0.0 in
  List.iter
    (fun (ctx, _, est, st) ->
      let q =
        Obs.Diagnose.qerror ~est:est.R.Cost.eval_cost
          ~act:(float_of_int st.R.Executor.work)
      in
      sum_log := !sum_log +. Float.log q;
      if q > 1.5 then
        Alcotest.failf
          "%s: whole-stream eval cost drifted %.1fx (est %.0f, actual %d)"
          ctx q est.R.Cost.eval_cost st.R.Executor.work)
    plans;
  let geo = exp (!sum_log /. float_of_int (List.length plans)) in
  if geo > 1.15 then
    Alcotest.failf "geo-mean whole-stream eval-cost q-error %.2f > 1.15" geo

let test_per_operator () =
  List.iter
    (fun (ctx, samples, _, _) ->
      List.iter
        (fun (d : Obs.Diagnose.sample) ->
          let q =
            Obs.Diagnose.qerror ~est:d.d_est_rows ~act:(float_of_int d.d_act_rows)
          in
          if q > 1.1 then
            Alcotest.failf "%s: %s rows estimate drifted %.1fx (est %.0f act %d)"
              ctx d.d_op q d.d_est_rows d.d_act_rows)
        samples)
    (annotated_plans ())

(* Regression: the five-table chain joins LineItem on (suppkey,
   partkey), PartSupp's key and LineItem's declared foreign key.  Priced
   as two independent equalities, it was estimated at 44 rows against
   8,981 at scale 6, the stream S1.4.2 over it (greedy's unreduced q1
   plan then, edge mask 473) sorted an estimated 93 rows against 26,943,
   and greedy picked that plan over faster ones. *)
let test_chain_join_scale6 () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 6.0) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let stats = Lazy.force p.Middleware.stats in
  let run plan =
    let e = Middleware.execute p plan in
    List.map
      (fun (se : Middleware.stream_exec) ->
        let _, est = R.Cost.annotate stats se.Middleware.se_plan in
        (se, est, se.Middleware.se_stats.R.Executor.actuals))
      e.Middleware.per_stream
  in
  let qerror (est : R.Physical.estimates) (act : R.Physical.actuals) field id =
    let e, a =
      match field with
      | `Rows -> (est.R.Physical.rows.(id), act.R.Physical.rows.(id))
      | `Cost -> (est.R.Physical.cost.(id), act.R.Physical.cost.(id))
    in
    (Obs.Diagnose.qerror ~est:e ~act:(float_of_int a), e, a)
  in
  (* every LineItem join on two keys, in greedy's plan *)
  let chains = ref 0 in
  List.iter
    (fun ((se : Middleware.stream_exec), est, act) ->
      R.Physical.iter
        (fun n ->
          match n.R.Physical.shape with
          | R.Physical.Join
              {
                right = { R.Physical.shape = R.Physical.Scan { table = "LineItem"; _ }; _ };
                info;
                _;
              }
            when List.exists
                   (fun (ix : R.Physical.index) -> Array.length ix.left_keys = 2)
                   info.R.Physical.indexes
            ->
              incr chains;
              let q, e, a = qerror est act `Rows n.R.Physical.id in
              if q > 2.0 then
                Alcotest.failf "chain join rows est %.0f act %d (%.1fx)" e a q
          | _ -> ())
        se.Middleware.se_plan)
    (run (Middleware.partition_of p Middleware.Greedy));
  Alcotest.(check bool) "greedy's plan joins the chain" true (!chains > 0);
  (* S1.4.2's sort, in the plan greedy used to pick *)
  let e = Middleware.execute p (Partition.of_mask p.Middleware.tree 473) in
  let sorts =
    List.filter
      (fun (d : Obs.Diagnose.sample) -> d.d_stream = "S1.4.2" && d.d_op = "sort")
      (Middleware.diagnose_samples p e)
  in
  List.iter
    (fun (d : Obs.Diagnose.sample) ->
      let q = Obs.Diagnose.qerror ~est:d.d_est_cost ~act:(float_of_int d.d_act_cost) in
      if q > 4.0 then
        Alcotest.failf "S1.4.2 sort cost est %.0f act %d (%.1fx)" d.d_est_cost
          d.d_act_cost q)
    sorts;
  Alcotest.(check int) "S1.4.2 is one sorted stream" 1 (List.length sorts)

let suite =
  [
    Alcotest.test_case "scan estimates are exact" `Quick test_scans_exact;
    Alcotest.test_case "whole-stream cost within tolerance" `Quick
      test_stream_totals;
    Alcotest.test_case "per-operator rows within tolerance" `Quick
      test_per_operator;
    Alcotest.test_case "scale 6: q1's LineItem chain join and S1.4.2's sort"
      `Quick test_chain_join_scale6;
  ]
