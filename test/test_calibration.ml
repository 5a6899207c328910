(* Cost-oracle calibration tolerances.  [Cost.annotate] prices the same
   physical plan the executor runs, so estimates and meter readings are
   comparable per operator (read side by side through
   [Physical.diagnose_samples]).  These bounds are deliberately loose — the
   estimator carries System-R independence assumptions — but they fail
   the suite loudly if the oracle drifts grossly from the engine
   (e.g. a charge formula changes on one side only). *)

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
      if q > 100.0 then
        Alcotest.failf
          "%s: whole-stream eval cost drifted %.1fx (est %.0f, actual %d)"
          ctx q est.R.Cost.eval_cost st.R.Executor.work)
    plans;
  let geo = exp (!sum_log /. float_of_int (List.length plans)) in
  if geo > 3.0 then
    Alcotest.failf "geo-mean whole-stream eval-cost q-error %.2f > 3.0" geo

let test_per_operator () =
  List.iter
    (fun (ctx, samples, _, _) ->
      List.iter
        (fun (d : Obs.Diagnose.sample) ->
          let q =
            Obs.Diagnose.qerror ~est:d.d_est_rows ~act:(float_of_int d.d_act_rows)
          in
          if q > 150.0 then
            Alcotest.failf "%s: %s rows estimate drifted %.1fx (est %.0f act %d)"
              ctx d.d_op q d.d_est_rows d.d_act_rows)
        samples)
    (annotated_plans ())

let suite =
  [
    Alcotest.test_case "scan estimates are exact" `Quick test_scans_exact;
    Alcotest.test_case "whole-stream cost within tolerance" `Quick
      test_stream_totals;
    Alcotest.test_case "per-operator rows within tolerance" `Quick
      test_per_operator;
  ]
