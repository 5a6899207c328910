(* The greedy plan-generation algorithm (paper Sec. 5, Fig. 17). *)

open Silkroute
module R = Relational

let setup ?(scale = 0.5) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

let run ?reduce ?(params = Planner.default_params) db (p : Middleware.prepared) =
  let oracle = R.Cost.oracle_with_stats db (R.Stats.analyze db) in
  Planner.gen_plan ?reduce db oracle p.Middleware.tree p.Middleware.labels params

let test_terminates_and_partitions_edges () =
  let db, p = setup Queries.query1_text in
  let r = run db p in
  let chosen = r.Planner.mandatory @ r.Planner.optional in
  (* chosen edges are distinct, real view-tree edges *)
  Alcotest.(check int) "no duplicates" (List.length chosen)
    (List.length (List.sort_uniq compare chosen));
  List.iter
    (fun e ->
      Alcotest.(check bool) "real edge" true
        (Array.exists (fun e' -> e' = e) p.Middleware.tree.View_tree.edges))
    chosen

let test_thresholds_zero_merges_only_beneficial () =
  let db, p = setup Queries.query1_text in
  let params = { Planner.a = 1.0; b = 1.0; t1 = 0.0; t2 = 0.0 } in
  let r = run ~params db p in
  Alcotest.(check (list (pair int int))) "nothing optional at t2=0" [] r.Planner.optional;
  Alcotest.(check bool) "some mandatory merges" true (r.Planner.mandatory <> [])

let test_thresholds_extreme () =
  let db, p = setup Queries.query1_text in
  (* impossible thresholds: nothing merges *)
  let none =
    run ~params:{ Planner.a = 1.0; b = 1.0; t1 = -1e18; t2 = -1e18 } db p
  in
  Alcotest.(check int) "no edges chosen" 0
    (List.length (none.Planner.mandatory @ none.Planner.optional));
  (* everything below t1: all nine edges merge *)
  let all = run ~params:{ Planner.a = 1.0; b = 1.0; t1 = 1e18; t2 = 1e18 } db p in
  Alcotest.(check int) "all mandatory" 9 (List.length all.Planner.mandatory)

let test_plan_family_size () =
  let db, p = setup Queries.query1_text in
  let r = run ~reduce:true db p in
  let plans = Planner.plans_of p.Middleware.tree r in
  Alcotest.(check int) "2^|optional| plans"
    (1 lsl List.length r.Planner.optional)
    (List.length plans);
  (* all plans contain the mandatory edges *)
  List.iter
    (fun plan ->
      List.iter
        (fun e ->
          Alcotest.(check bool) "mandatory kept" true
            (List.mem e (Partition.kept_edges plan)))
        r.Planner.mandatory)
    plans

let test_best_plan_is_family_maximum () =
  let db, p = setup Queries.query2_text in
  let r = run db p in
  let best = Planner.best_plan p.Middleware.tree r in
  Alcotest.(check int) "kept = mandatory + optional"
    (List.length (r.Planner.mandatory @ r.Planner.optional))
    (List.length (Partition.kept_edges best))

let test_request_counting_far_below_worst_case () =
  (* paper Sec. 5.1: far fewer oracle requests than |E|^2 = 81 *)
  let db, p = setup Queries.query1_text in
  let r = run db p in
  Alcotest.(check bool)
    (Printf.sprintf "%d requests < 81" r.Planner.requests)
    true
    (r.Planner.requests < 81 && r.Planner.requests > 0)

let test_generated_plan_beats_baselines () =
  (* the headline claim: the greedy plan is faster than both default
     strategies *)
  let db, p = setup ~scale:1.0 Queries.query1_text in
  let r = run ~reduce:true db p in
  let best = Planner.best_plan p.Middleware.tree r in
  let work plan reduce = (Middleware.execute ~reduce p plan).Middleware.work in
  let greedy = work best true in
  let unified_ou =
    (Middleware.execute ~style:Sql_gen.Outer_union p
       (Partition.unified p.Middleware.tree)).Middleware.work
  in
  let fully = work (Partition.fully_partitioned p.Middleware.tree) true in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %d < unified outer-union %d" greedy unified_ou)
    true (greedy < unified_ou);
  Alcotest.(check bool)
    (Printf.sprintf "greedy %d < fully partitioned %d" greedy fully)
    true (greedy < fully)

let test_greedy_strategy_through_middleware () =
  (* q2 at scale 1: the reduced and unreduced genPlan runs pick
     different plans, so planning for the wrong reduction shows *)
  let db, p = setup ~scale:1.0 Queries.query2_text in
  let plan = Middleware.partition_of ~reduce:true p Middleware.Greedy in
  Alcotest.(check bool) "intermediate stream count" true
    (Partition.stream_count plan >= 1 && Partition.stream_count plan <= 10);
  let mask r = Partition.to_mask (Planner.best_plan p.Middleware.tree r) in
  Alcotest.(check int) "the reduced genPlan's best plan"
    (mask (run ~reduce:true db p))
    (Partition.to_mask plan);
  Alcotest.(check bool) "not the unreduced one" true
    (mask (run db p) <> Partition.to_mask plan);
  (* and the result is still correct *)
  let truth = Middleware.materialize_naive p in
  let e = Middleware.execute ~reduce:true p plan in
  Alcotest.(check bool) "correct output" true
    (Xmlkit.Xml.equal (Middleware.document_of p e) truth)

let test_fragment_of_helper () =
  let db, p = setup Queries.query1_text in
  ignore db;
  let f = Planner.fragment_of p.Middleware.tree [ 0; 4; 5 ] in
  (* 0 = supplier, 4 = part, 5 = part/name *)
  Alcotest.(check int) "root" 0 f.Partition.root;
  Alcotest.(check int) "two internal edges" 2 (List.length f.Partition.internal_edges)

let test_requests_is_per_run_delta () =
  (* a reused oracle must not inflate later reports: the second run on
     the same oracle reports its own request count, not the cumulative
     counter (cache warmth may make it cheaper, never negative) *)
  let db, p = setup Queries.query1_text in
  let oracle = R.Cost.oracle_with_stats db (R.Stats.analyze db) in
  let gen () =
    Planner.gen_plan db oracle p.Middleware.tree p.Middleware.labels
      Planner.default_params
  in
  let first = gen () in
  let second = gen () in
  Alcotest.(check bool) "first run issues requests" true
    (first.Planner.requests > 0);
  Alcotest.(check bool)
    (Printf.sprintf "second run reports a delta (%d <= %d), not a cumulative"
       second.Planner.requests first.Planner.requests)
    true
    (second.Planner.requests >= 0
    && second.Planner.requests <= first.Planner.requests);
  (* and a fresh oracle reproduces the first run's figure exactly *)
  let fresh =
    Planner.gen_plan db (R.Cost.oracle_with_stats db (R.Stats.analyze db)) p.Middleware.tree
      p.Middleware.labels Planner.default_params
  in
  Alcotest.(check int) "fresh oracle matches first run" first.Planner.requests
    fresh.Planner.requests

let test_deterministic () =
  let db, p = setup Queries.query1_text in
  let a = run db p and b = run db p in
  Alcotest.(check bool) "same result" true
    (a.Planner.mandatory = b.Planner.mandatory && a.Planner.optional = b.Planner.optional)

let suite =
  [
    Alcotest.test_case "terminates, edges valid" `Quick test_terminates_and_partitions_edges;
    Alcotest.test_case "zero thresholds" `Quick test_thresholds_zero_merges_only_beneficial;
    Alcotest.test_case "extreme thresholds" `Quick test_thresholds_extreme;
    Alcotest.test_case "plan family = 2^optional" `Quick test_plan_family_size;
    Alcotest.test_case "best plan" `Quick test_best_plan_is_family_maximum;
    Alcotest.test_case "oracle requests below worst case" `Quick test_request_counting_far_below_worst_case;
    Alcotest.test_case "greedy beats default strategies" `Quick test_generated_plan_beats_baselines;
    Alcotest.test_case "greedy via middleware + correct" `Quick test_greedy_strategy_through_middleware;
    Alcotest.test_case "fragment_of helper" `Quick test_fragment_of_helper;
    Alcotest.test_case "requests is a per-run delta" `Quick
      test_requests_is_per_run_delta;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
