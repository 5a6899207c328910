(* The resilient backend layer: fault injection / retry unit tests on
   Backend, Partition.split laws, and differential tests of
   Middleware.execute under faults and degradation — byte-identical
   output versus the fault-free run across fault rates, budget-forced
   degradation through the plan lattice, exact (deterministic)
   resilience counters for a fixed seed, and the executed plans'
   actuals surviving retries. *)

open Silkroute
module R = Relational
module B = Relational.Backend

let supplier_q = "SELECT s.name AS n FROM Supplier AS s ORDER BY n"

(* > 32 rows at scale 0.3, so a scheduled mid-stream drop (after at most
   32 delivered rows) always fires *)
let part_q = "SELECT p.name AS n FROM Part AS p ORDER BY n"

let tpch scale = Tpch.Gen.generate (Tpch.Gen.config scale)
let parse = R.Sql_parser.parse

(* --- backend unit tests -------------------------------------------------- *)

let test_no_faults_passthrough () =
  let db = tpch 0.2 in
  let backend = B.create db in
  let expected, _ = R.Executor.run_plan_with_stats db (R.Physical.plan_of db (parse supplier_q)) in
  let cur = (B.execute_plan backend (B.plan db supplier_q)).B.rows in
  Alcotest.(check bool) "same rows" true
    (R.Relation.equal expected (R.Cursor.to_relation (cur ())));
  let st = B.stats backend in
  Alcotest.(check int) "one submit" 1 st.B.submits;
  Alcotest.(check int) "one attempt" 1 st.B.attempts;
  Alcotest.(check int) "no retries" 0 st.B.retries;
  Alcotest.(check int) "no faults" 0 (B.total_faults st)

let test_transient_exhausts_bounded_retries () =
  let db = tpch 0.1 in
  let backend =
    B.create ~faults:(B.faults ~midstream_weight:0.0 1.0) ~retries:3 db
  in
  (match B.execute_plan backend (B.plan db supplier_q) with
  | _ -> Alcotest.fail "certain transient faults must exhaust retries"
  | exception B.Backend_error { kind; attempt; _ } ->
      Alcotest.(check bool) "transient" true (kind = B.Transient);
      Alcotest.(check int) "failed on attempt retries+1" 4 attempt);
  let st = B.stats backend in
  Alcotest.(check int) "attempts" 4 st.B.attempts;
  Alcotest.(check int) "retries" 3 st.B.retries;
  Alcotest.(check int) "every attempt faulted" 4 st.B.faults_transient

let test_fatal_not_retried () =
  let db = tpch 0.1 in
  let backend =
    B.create ~faults:(B.faults ~fatal_weight:1.0 1.0) ~retries:3 db
  in
  (match B.execute_plan backend (B.plan db supplier_q) with
  | _ -> Alcotest.fail "fatal fault must escape"
  | exception B.Backend_error { kind; attempt; _ } ->
      Alcotest.(check bool) "fatal" true (kind = B.Fatal);
      Alcotest.(check int) "first attempt" 1 attempt);
  let st = B.stats backend in
  Alcotest.(check int) "no retries" 0 st.B.retries;
  Alcotest.(check int) "one fatal fault" 1 st.B.faults_fatal

let test_timeout_not_retried_wasted_work () =
  let db = tpch 0.3 in
  let budget = 50 in
  let backend = B.create ~budget db in
  (match B.execute_plan backend (B.plan db part_q) with
  | _ -> Alcotest.fail "tiny budget must time out"
  | exception B.Backend_error { kind; _ } ->
      Alcotest.(check bool) "timeout" true (kind = B.Timeout));
  let st = B.stats backend in
  Alcotest.(check int) "no retries" 0 st.B.retries;
  Alcotest.(check int) "one timeout" 1 st.B.timeouts;
  Alcotest.(check int) "wasted the budget" budget st.B.wasted_work

let test_backoff_exponential_within_jitter () =
  let db = tpch 0.1 in
  let backend =
    B.create ~faults:(B.faults ~midstream_weight:0.0 1.0) ~retries:10 db
  in
  (try ignore (B.execute_plan backend (B.plan db supplier_q))
   with B.Backend_error _ -> ());
  let st = B.stats backend in
  (* slots 10, 20, ..., 2560, then 5000 (the cap): 10,110 ms, each
     jittered by ±25% *)
  Alcotest.(check int) "every retry backed off" 10 st.B.retries;
  Alcotest.(check bool)
    (Printf.sprintf "total backoff %.1f in [7582.5, 12637.5]" st.B.backoff_ms)
    true
    (st.B.backoff_ms >= 7582.5 && st.B.backoff_ms <= 12637.5)

let test_midstream_drop_retried () =
  let db = tpch 0.3 in
  let backend =
    B.create ~faults:(B.faults ~midstream_weight:1.0 1.0) ~retries:2 db
  in
  (match B.execute_plan backend (B.plan db part_q) with
  | _ -> Alcotest.fail "certain mid-stream drops must exhaust retries"
  | exception B.Backend_error { kind; rows_delivered; _ } ->
      Alcotest.(check bool) "transient" true (kind = B.Transient);
      Alcotest.(check bool) "dropped after some rows" true (rows_delivered > 0));
  let st = B.stats backend in
  Alcotest.(check int) "every attempt dropped mid-stream" 3
    st.B.faults_midstream;
  Alcotest.(check bool) "failed attempts' engine work is sunk" true
    (st.B.wasted_work > 0)

let test_midstream_recovery_accounting () =
  (* find a seed where the first attempt drops mid-stream and a retry
     succeeds; the winning attempt's rows and counts must match the
     fault-free run exactly (a failed attempt's counts are dropped) *)
  let db = tpch 0.3 in
  let expected, _ = R.Executor.run_plan_with_stats db (R.Physical.plan_of db (parse part_q)) in
  let clean = B.execute_plan (B.create db) (B.plan db part_q) in
  let rec hunt seed =
    if seed > 100 then Alcotest.fail "no recovering seed below 100"
    else
      let backend =
        B.create ~faults:(B.faults ~seed ~midstream_weight:1.0 0.5) ~retries:8 db
      in
      match B.execute_plan backend (B.plan db part_q) with
      | r when (B.stats backend).B.faults_midstream > 0 ->
          Alcotest.(check bool) "rows match fault-free run" true
            (R.Relation.equal expected (R.Cursor.to_relation (r.B.rows ())));
          Alcotest.(check int) "tuples of the winning attempt only"
            (R.Relation.cardinality expected) r.B.tuples;
          Alcotest.(check int) "bytes of the winning attempt only"
            clean.B.bytes r.B.bytes;
          Alcotest.(check (float 0.0)) "transfer of the winning attempt only"
            clean.B.transfer_ms r.B.transfer_ms
      | _ -> hunt (seed + 1)
      | exception B.Backend_error _ -> hunt (seed + 1)
  in
  hunt 0

let test_seed_determinism () =
  let db = tpch 0.2 in
  let run seed =
    let backend =
      B.create ~faults:(B.faults ~seed ~midstream_weight:0.5 0.4) ~retries:8 db
    in
    List.iter
      (fun q ->
        try ignore (B.execute_plan backend (B.plan db q)) with B.Backend_error _ -> ())
      [ supplier_q; part_q; supplier_q ];
    B.stats backend
  in
  (* some seeds draw no faults for this short sequence; find one that
     does, then demand bit-level reproducibility for it *)
  let rec hunt seed =
    if seed > 100 then Alcotest.fail "no faulting seed below 100"
    else
      let a = run seed in
      if B.total_faults a = 0 then hunt (seed + 1)
      else
        Alcotest.(check bool)
          (Printf.sprintf "identical stats for seed %d and same sequence" seed)
          true
          (a = run seed)
  in
  hunt 0

(* --- Partition.split ----------------------------------------------------- *)

let test_split_laws () =
  let db = tpch 0.1 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let tree = p.Middleware.tree in
  let unified = Partition.unified tree in
  let rec check (f : Partition.fragment) =
    match Partition.split f with
    | None ->
        Alcotest.(check int) "single node has no internal edges" 0
          (List.length f.Partition.internal_edges);
        Alcotest.(check int) "single member" 1 (List.length f.Partition.members)
    | Some frags ->
        Alcotest.(check int) "split cuts exactly one edge"
          (List.length f.Partition.internal_edges - 1)
          (List.fold_left
             (fun acc g -> acc + List.length g.Partition.internal_edges)
             0 frags);
        Alcotest.(check (list int)) "members are partitioned, order kept"
          f.Partition.members
          (List.sort compare (List.concat_map (fun g -> g.Partition.members) frags));
        List.iter
          (fun (g : Partition.fragment) ->
            Alcotest.(check int) "root is the minimum member"
              (List.fold_left min max_int g.Partition.members)
              g.Partition.root)
          frags;
        let roots = List.map (fun g -> g.Partition.root) frags in
        Alcotest.(check (list int)) "fragments ordered by root"
          (List.sort compare roots) roots;
        List.iter check frags
  in
  List.iter check (Partition.fragments unified)

(* --- resilient execution: differential across fault rates ---------------- *)

(* Resilient execution as the CLI's --resilient runs it: up to 8 nested
   splits, rows spooled unless [spool] says otherwise. *)
let resilient ?(spool = true) ~backend p plan =
  Middleware.execute ~backend ~max_splits:8 ~spool p plan

(* For every small view, mask and rate, rows in the heap and spooled:
   resilient output byte-identical to the fault-free run, and the
   resilience counters exactly reproducible for the fixed seed (zero
   fault activity at rate 0). *)
let test_small_views_differential () =
  let faults = Matrix.resilient ~seed:14 [ 0.0; 0.1; 0.3 ] in
  let modes = Matrix.runs ~spool:[ false; true ] ~faults () in
  let views = Matrix.[ fragment; mixed_content; forest ] in
  Matrix.(check (List.map (fun v -> slice v figure8 ~modes) views))

(* --- budget-forced degradation ------------------------------------------- *)

(* A budget between the largest single-node stream and the unified query
   forces the unified plan to degrade down the lattice while every leaf
   sub-query still fits. *)
let test_budget_forces_degradation () =
  let db = tpch 0.2 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let unified = Partition.unified p.Middleware.tree in
  let baseline = Middleware.execute p unified in
  let budget = Matrix.degradation_budget Matrix.q1 (Matrix.tpch 0.2) in
  Alcotest.(check bool) "unified cannot fit the budget" true
    (baseline.Middleware.work > budget);
  let backend = B.create ~budget db in
  let e = resilient ~backend p unified in
  Alcotest.(check string) "byte-identical after degradation"
    (Middleware.xml_string_of p baseline)
    (Middleware.xml_string_of p e);
  let res = e.Middleware.resilience in
  Alcotest.(check bool) "at least one stream degraded" true
    (e.Middleware.degraded >= 1);
  Alcotest.(check bool) "timeouts observed" true (res.B.timeouts >= 1);
  Alcotest.(check bool) "sunk budget accounted as wasted work" true
    (res.B.wasted_work >= budget)

let test_single_node_timeout_escapes () =
  (* nothing finer exists for a fully partitioned plan: a timeout must
     escape as Plan_timeout with the payload naming the fragment root *)
  let db = tpch 0.2 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let backend = B.create ~budget:10 db in
  match
    resilient ~backend p (Partition.fully_partitioned p.Middleware.tree)
  with
  | _ -> Alcotest.fail "tiny budget must time out"
  | exception Middleware.Plan_timeout info ->
      Alcotest.(check bool) "names the fragment root" true
        (String.length info.Middleware.timeout_root > 0);
      Alcotest.(check bool) "carries SQL" true
        (String.length info.Middleware.timeout_sql > 0)

(* --- executed plans survive retries -------------------------------------- *)

(* A retried stream must report the plan that ran: per operator, the
   same actual rows and work as a fault-free run of the same plan, never
   the unexecuted (negative) figures of a plan built only for show. *)
let test_retried_run_keeps_actuals () =
  let db = tpch 0.1 in
  let p = Middleware.prepare_text db Queries.query2_text in
  let plan = Partition.fully_partitioned p.Middleware.tree in
  let actuals e =
    List.map
      (fun (s : Obs.Diagnose.sample) ->
        (s.Obs.Diagnose.d_stream, s.Obs.Diagnose.d_node, s.Obs.Diagnose.d_op,
         s.Obs.Diagnose.d_act_rows, s.Obs.Diagnose.d_act_cost))
      (Middleware.diagnose_samples p e)
  in
  Obs.Control.with_enabled true (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Span.reset ();
          Obs.Event.reset ())
        (fun () ->
          (* the first seed whose run retries at least once *)
          let rec faulted seed =
            if seed > 100 then Alcotest.fail "no retrying seed below 100"
            else
              let backend =
                B.create ~faults:(B.faults ~seed 0.3)
                  ~retries:8 db
              in
              let e = resilient ~backend p plan in
              if e.Middleware.resilience.B.retries > 0 then e
              else faulted (seed + 1)
          in
          let retried = actuals (faulted 0) in
          let clean = actuals (Middleware.execute p plan) in
          Alcotest.(check bool) "operators sampled" true (retried <> []);
          List.iter
            (fun (stream, node, op, rows, cost) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s node %d (%s): actuals measured" stream node
                   op)
                true
                (rows >= 0 && cost >= 0))
            retried;
          Alcotest.(check bool) "actuals equal the fault-free run's" true
            (retried = clean)))

(* --- acceptance: q1/q2, all plans, faults + degradation ------------------- *)

(* With a fixed seed, fault rate 0.3 and a budget that forces
   degradation, every one of the 2^|E| plans produces XML byte-identical
   to the fault-free path, with retries observed and at least one stream
   degraded across the sweep. *)
let test_acceptance view () =
  let db = Matrix.tpch 0.08 in
  let budget = Matrix.degradation_budget view db in
  let faults = Matrix.resilient ~budget ~seed:14 [ 0.3 ] in
  let modes = Matrix.runs ~spool:[ true ] ~faults () in
  Matrix.(check ~fired:[ `Retries; `Degraded ] [ slice view db ~modes ])

(* Query 1's unified plan at scale 0.3 under faults and a budget it
   cannot meet: it degrades through the lattice and retries within the
   bound, and still reproduces the fault-free bytes, twice over. *)
let test_unified_under_faults_and_budget () =
  let db = Matrix.tpch 0.3 and unified = 511 in
  let budget = Matrix.degradation_budget Matrix.q1 db in
  Alcotest.(check bool) "unified work exceeds the budget" true
    (Matrix.reference_work Matrix.q1 db unified > budget);
  let faults = Matrix.resilient ~budget ~seed:14 [ 0.3 ] in
  let modes = Matrix.runs ~spool:[ true ] ~faults () in
  Matrix.(
    check ~fired:[ `Retries; `Degraded ]
      [ slice q1 db ~masks:(only [ unified ]) ~modes ])

let suite =
  [
    Alcotest.test_case "backend: fault-free passthrough" `Quick
      test_no_faults_passthrough;
    Alcotest.test_case "backend: bounded retries on transient faults" `Quick
      test_transient_exhausts_bounded_retries;
    Alcotest.test_case "backend: fatal not retried" `Quick test_fatal_not_retried;
    Alcotest.test_case "backend: timeout not retried, budget sunk" `Quick
      test_timeout_not_retried_wasted_work;
    Alcotest.test_case "backend: exponential backoff within jitter" `Quick
      test_backoff_exponential_within_jitter;
    Alcotest.test_case "backend: mid-stream drops retried" `Quick
      test_midstream_drop_retried;
    Alcotest.test_case "backend: mid-stream recovery accounting" `Quick
      test_midstream_recovery_accounting;
    Alcotest.test_case "backend: seed determinism" `Quick test_seed_determinism;
    Alcotest.test_case "partition: split laws" `Quick test_split_laws;
    Alcotest.test_case "resilient = materialized (small views x rates)" `Quick
      test_small_views_differential;
    Alcotest.test_case "budget forces degradation, output identical" `Quick
      test_budget_forces_degradation;
    Alcotest.test_case "single-node timeout escapes as Plan_timeout" `Quick
      test_single_node_timeout_escapes;
    Alcotest.test_case "retried run keeps the executed plan's actuals" `Quick
      test_retried_run_keeps_actuals;
    Alcotest.test_case "acceptance: q1 all plans, faults + degradation" `Slow
      (test_acceptance Matrix.q1);
    Alcotest.test_case "acceptance: q2 all plans, faults + degradation" `Slow
      (test_acceptance Matrix.q2);
    Alcotest.test_case "q1 unified, scale 0.3: faults + budget, same output"
      `Quick test_unified_under_faults_and_budget;
  ]
