(* Serving experiment: measured queries/sec and latency percentiles for
   the query server, with the cache tiers on vs off, at 1/2/4 worker
   domains.

   Each server replays the same seeded request script twice through
   [Workload.run_direct ~threads:true] — one thread per client, real
   concurrency through admission and the pool — and the second pass is
   the warm one.  qps is queries over the pass's wall-clock seconds;
   p50/p90/p99 are the tally's exact nearest-rank percentiles of the
   per-request wall time.  Both depend on the machine; the invariants
   below do not: every reply is checked byte-for-byte against the
   direct pipeline, with the tiers on the warm pass executes strictly
   less engine work than the cold one, and with them off exactly as
   much. *)

open Bench_common

let workload_cfg =
  {
    Server.Workload.default_config with
    Server.Workload.clients = 3;
    requests_per_client = 12;
    invalidate_every = 0;
  }

(* One measured pass: the tally and the queries per wall second. *)
let replay server views =
  let t0 = Obs.Clock.now_ns () in
  let tally =
    Server.Workload.run_direct ~threads:true server ~views workload_cfg
  in
  let s = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1000.0 in
  (tally, float_of_int tally.Server.Workload.queries /. s)

let identical (t : Server.Workload.tally) =
  t.mismatches = [] && t.failed = 0 && t.rejected = 0 && t.results = t.queries

let print_pass ~cache ~domains ~label ((t : Server.Workload.tally), qps) =
  Printf.printf "%5s %7d %5s %7d %9d %8.1f %7.2f %7.2f %7.2f %5d/%d/%d %10s\n"
    (if cache then "on" else "off")
    domains label t.queries t.work qps t.lat_p50_ms t.lat_p90_ms t.lat_p99_ms
    t.statement_hits t.plan_hits t.result_hits
    (if identical t then "yes" else "NO!")

let run () =
  print_header
    "Serving: query server qps + latency percentiles (cache on/off, 1/2/4 \
     domains)";
  let db = Tpch.Gen.generate (Tpch.Gen.config config_a.scale) in
  print_config db config_a;
  let views = Server.Workload.standard_views db in
  Printf.printf
    "workload: %d client threads x %d requests, strategies {%s}; %d cores \
     available, OCaml %s\n\n"
    workload_cfg.Server.Workload.clients
    workload_cfg.Server.Workload.requests_per_client
    (String.concat ", " workload_cfg.Server.Workload.strategies)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.printf "%5s %7s %5s %7s %9s %8s %7s %7s %7s %9s %10s\n" "cache"
    "domains" "pass" "queries" "work" "qps" "p50" "p90" "p99" "hits"
    "identical";
  let ok = ref true in
  List.iter
    (fun cache ->
      List.iter
        (fun domains ->
          let config =
            {
              Server.Service.default_config with
              Server.Service.domains;
              statement_capacity = (if cache then 64 else 0);
              plan_capacity = (if cache then 256 else 0);
              result_capacity = (if cache then 16 * 1024 * 1024 else 0);
            }
          in
          let server = Server.Service.create ~config db in
          let cold = replay server views in
          let warm = replay server views in
          Server.Service.shutdown server;
          print_pass ~cache ~domains ~label:"cold" cold;
          print_pass ~cache ~domains ~label:"warm" warm;
          let cold, warm = (fst cold, fst warm) in
          ok := !ok && identical cold && identical warm;
          if cache then ok := !ok && warm.work < cold.work
          else ok := !ok && warm.work = cold.work)
        [ 1; 2; 4 ])
    [ true; false ];
  Printf.printf
    "\nqps and p50/p90/p99 [ms] are measured wall clock on this machine.  \
     With the\ntiers on, the warm pass re-executes nothing (strictly less \
     engine work than\ncold); with them off both passes pay full price.  \
     Invariants\n(byte-identity, warm < cold with cache, warm = cold \
     without): %s\n"
    (if !ok then "yes" else "NO!")
