(* Fault-injection smoke check (tools/ci.sh): run Query 1's unified plan
   through the resilient backend with a fixed seed, a nonzero fault rate
   and a work budget small enough that the unified sub-query must
   degrade through the plan lattice, then assert that

   - the merged XML is byte-identical to the fault-free materialized run,
   - retries fired but stayed within the per-submission bound,
   - degradation fired (the budget guarantees at least the initial split),
   - a second identical run reproduces the resilience counters exactly
     (determinism of the seeded fault/jitter stream). *)

module R = Relational
module S = Silkroute

let fault_rate = 0.3
let fault_seed = 14
let max_retries = 8

let () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.3) in
  let p = S.Middleware.prepare_text db S.Queries.query1_text in
  let unified = S.Partition.unified p.S.Middleware.tree in
  let baseline = S.Middleware.execute p unified in
  let baseline_xml = S.Middleware.xml_string_of p baseline in
  let fully = S.Middleware.execute p (S.Partition.fully_partitioned p.S.Middleware.tree) in
  let max_node_work =
    List.fold_left
      (fun acc se -> max acc se.S.Middleware.se_stats.R.Executor.work)
      0 fully.S.Middleware.per_stream
  in
  let budget = 2 * max_node_work in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("fault-smoke FAIL: " ^ s);
        exit 1)
      fmt
  in
  if baseline.S.Middleware.work <= budget then
    fail "test not meaningful: unified work %d fits the budget %d"
      baseline.S.Middleware.work budget;
  let run () =
    let backend =
      R.Backend.create
        ~faults:(R.Backend.faults ~seed:fault_seed fault_rate)
        ~retry:{ R.Backend.default_retry with R.Backend.max_retries }
        ~budget db
    in
    let e = S.Middleware.execute ~backend ~max_splits:8 ~spool:true p unified in
    (S.Middleware.xml_string_of p e, e.S.Middleware.resilience)
  in
  let xml, res = run () in
  Printf.printf
    "fault-smoke: rate %.2f seed %d budget %d -> %d submits, %d attempts, %d \
     retries, %d faults, %d timeouts, %d degraded\n"
    fault_rate fault_seed budget res.S.Middleware.r_submits
    res.S.Middleware.r_attempts res.S.Middleware.r_retries
    res.S.Middleware.r_faults res.S.Middleware.r_timeouts
    res.S.Middleware.r_degraded;
  if xml <> baseline_xml then
    fail "resilient XML differs from the fault-free run (%d vs %d bytes)"
      (String.length xml)
      (String.length baseline_xml);
  if res.S.Middleware.r_degraded = 0 then
    fail "budget %d did not force any degradation" budget;
  if res.S.Middleware.r_retries = 0 then
    fail "fault rate %.2f with seed %d produced no retries" fault_rate
      fault_seed;
  if res.S.Middleware.r_attempts > res.S.Middleware.r_submits * (1 + max_retries)
  then
    fail "attempts %d exceed the retry bound (%d submits x %d)"
      res.S.Middleware.r_attempts res.S.Middleware.r_submits (1 + max_retries);
  let xml2, res2 = run () in
  if xml2 <> xml || res2 <> res then
    fail "second run with the same seed diverged (determinism)";
  print_endline
    "fault-smoke OK: byte-identical output under faults, retries bounded, \
     deterministic"
