(* Test entry point: alcotest suites per module plus qcheck property
   suites bridged through qcheck-alcotest. *)

let qcheck name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

(* The suites' live data stays under 5 MB at every suite boundary, but
   the allocation-heavy lattice sweeps (streaming's carried sizes,
   resilience's acceptance, parallel's exhaustive plans) grow the major
   heap with garbage the collector's default pacing leaves behind: with
   space_overhead 120 the whole run peaks at 370-430 MB RSS, with 40 at
   170-190 MB, for 10-20% more wall time. *)
let () = Gc.set { (Gc.get ()) with Gc.space_overhead = 40 }

let () =
  Alcotest.run "silkroute"
    [
      ("value", Test_value.suite);
      qcheck "value:props" Test_value.props;
      ("tuple", Test_tuple.suite);
      qcheck "tuple:props" Test_tuple.props;
      ("relation", Test_relation.suite);
      qcheck "relation:props" Test_relation.props;
      ("schema+database", Test_schema_db.suite);
      ("expr", Test_expr.suite);
      qcheck "expr:props" Test_expr.props;
      ("sql", Test_sql.suite);
      ("sql-roundtrip", Test_sql_roundtrip.suite);
      ("executor", Test_executor.suite);
      qcheck "executor:props" Test_executor.props;
      ("stats+cost", Test_stats_cost.suite);
      qcheck "stats+cost:props" Test_stats_cost.props;
      ("calibration", Test_calibration.suite);
      ("time-model", Test_time_model.suite);
      ("source+csv", Test_source_csv.suite);
      ("tpch", Test_tpch.suite);
      ("xml", Test_xml.suite);
      ("xpath", Test_xpath.suite);
      qcheck "xml:props" Test_xml.props;
      ("datalog", Test_datalog.suite);
      ("rxl", Test_rxl.suite);
      ("view-tree", Test_view_tree.suite);
      ("label+reduce", Test_label_reduce.suite);
      ("partition", Test_partition.suite);
      qcheck "partition:props" Test_partition.props;
      ("sql-gen", Test_sql_gen.suite);
      ("tagger", Test_tagger.suite);
      qcheck "tagger:props" Test_tagger.props;
      ("planner", Test_planner.suite);
      ("query3", Test_query3.suite);
      ("middleware", Test_middleware.suite);
      ("streaming", Test_streaming.suite);
      ("resilience", Test_resilience.suite);
      ("parallel", Test_parallel.suite);
      ("share", Test_share.suite);
      ("differential", Test_differential.suite);
      ("batch", Test_batch.suite);
      qcheck "batch:props" Test_batch.props;
      ("server", Test_server.suite);
      ("telemetry", Test_telemetry.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("event+diagnose", Test_event.suite);
      qcheck "random-views:props" Test_random_views.props;
    ]
