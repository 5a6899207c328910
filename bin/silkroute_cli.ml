(* silkroute — command-line driver.

   Materializes an XML view of a generated TPC-H database (or runs a
   built-in paper query) under a chosen evaluation strategy, printing
   either the document or diagnostics.

     silkroute run --query q1 --scale 0.5 --strategy greedy
     silkroute run --query q1 --stream          # spooled results, streamed out
     silkroute run --view my_view.rxl --strategy edges:37 --no-reduce
     silkroute explain --query q2
     silkroute plan --query q1 --scale 1.0

   Observability (lib/obs): --trace prints the span tree of the pipeline
   (one span per stage of Obs.Stage — rxl_parser, view_tree, planner,
   sql_gen, sql_print, sql_parser, physical, executor, tagger — with
   durations and work attributes) to stderr, --profile the name-path profile tree plus a
   top-k hot-operator table with exact p50/p90/p99 span durations, and
   --trace-json FILE writes spans + events + profile as JSON Lines for
   diffing runs:

     silkroute run -q q1 --scale 0.2 --trace
     silkroute run -q q1 --profile
     silkroute run -q q1 --trace-json trace.jsonl
     silkroute plan -q q2 --trace

   Each figure has one home: span durations live in the span log (the
   profile folds it), event counts in Obs.Event, and a server's request
   and per-stage latencies in Server.Service, fed from each request's
   stage clock whether telemetry is on or not; `serve`'s M scrape
   (`monitor --raw`) exposes them.

   Diagnostics: --trace-chrome FILE exports the span tree as Chrome
   trace-event JSON (load in Perfetto or chrome://tracing), --diagnose
   runs the plan anomaly detector (est-vs-actual q-errors, spills,
   resilience counters, GC pressure) after the run, and --skew-stats
   TABLE=FACTOR deliberately corrupts the catalog to demonstrate it:

     silkroute run -q q1 --trace-chrome trace.json
     silkroute run -q q1 --diagnose --skew-stats Supplier=64
     silkroute diagnose -q q1 --skew-stats Supplier=64 *)

module R = Relational
module S = Silkroute
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_view query view_file =
  match (query, view_file) with
  | _, Some path -> read_file path
  | Some "q1", None | Some "query1", None -> S.Queries.query1_text
  | Some "q2", None | Some "query2", None -> S.Queries.query2_text
  | Some "fragment", None -> S.Queries.fragment_text
  | Some other, None -> invalid_arg ("unknown built-in query: " ^ other)
  | None, None -> S.Queries.query1_text

let query_arg =
  let doc = "Built-in view: q1, q2 or fragment (paper Figs. 3/12/4)." in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"NAME" ~doc)

let view_arg =
  let doc = "Path to an RXL view file (overrides --query)." in
  Arg.(value & opt (some file) None & info [ "view" ] ~docv:"FILE" ~doc)

let scale_arg =
  let doc = "TPC-H scale factor for the generated database." in
  Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"SF" ~doc)

let schema_arg =
  let doc =
    "Source-description file (tables, keys, foreign keys, inclusions);      replaces the generated TPC-H database."
  in
  Arg.(value & opt (some file) None & info [ "schema" ] ~docv:"FILE" ~doc)

let data_arg =
  let doc = "Directory of <Table>.csv files to load (requires --schema)." in
  Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let seed_arg =
  let doc = "Generator seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let strategy_arg =
  let doc =
    "Evaluation strategy: unified, partitioned, greedy, or edges:MASK \
     (an explicit bitmask over view-tree edges)."
  in
  Arg.(value & opt string "greedy" & info [ "strategy"; "s" ] ~docv:"STRAT" ~doc)

let no_reduce_arg =
  let doc = "Disable view-tree reduction." in
  Arg.(value & flag & info [ "no-reduce" ] ~doc)

let pretty_arg =
  let doc = "Indent the XML output." in
  Arg.(value & flag & info [ "pretty" ] ~doc)

let stream_arg =
  let doc =
    "Spool each sub-query's result to a temporary file instead of holding \
     it in memory, and merge the spools through cursors, so memory stays \
     bounded by the view-tree depth instead of the result size.  \
     Incompatible with $(b,--pretty)."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let budget_arg =
  let doc =
    "Work-unit budget per sub-query (0 = unlimited), modeling the paper's \
     5-minute per-query timeout.  A stream that exhausts it fails with a \
     timeout — or, under $(b,--resilient), degrades to finer sub-queries."
  in
  Arg.(value & opt int 0 & info [ "budget" ] ~docv:"N" ~doc)

let resilient_arg =
  let doc =
    "Degrade instead of failing: a stream whose sub-query fails for good \
     (retries exhausted, a fatal fault, or a budget timeout) is split along \
     view-tree edges into finer sub-queries, up to 8 nested splits, and \
     injected faults ($(b,--fault-rate)) are allowed.  Transient failures \
     are retried with exponential backoff on every run.  The XML output is \
     byte-identical to a fault-free run."
  in
  Arg.(value & flag & info [ "resilient" ] ~doc)

let fault_rate_arg =
  let doc =
    "Probability that a physical sub-query attempt is faulted (requires \
     $(b,--resilient)); draws are deterministic for a fixed $(b,--fault-seed)."
  in
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Seed for the fault-injection and backoff-jitter stream." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)

let retries_arg =
  let doc = "Maximum retries per sub-query after the first attempt (default 3)." in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let parallel_arg =
  let doc =
    "Run the plan's sub-queries on a pool of $(docv) OCaml domains, opened \
     for this run (default 1 = sequential, no domain spawned).  The \
     merge-tagger tie-breaks by plan order, so the XML and all \
     deterministic accounting are byte-identical at any pool size; on the \
     resilient path fault draws are per-stream, so the resilience counters \
     match too.  Whether it is faster depends on the machine: see the \
     measured scaling curve in EXPERIMENTS.md."
  in
  Arg.(value & opt int 1 & info [ "parallel" ] ~docv:"N" ~doc)

let explain_flag_arg =
  let doc =
    "After executing, print the plan's line (as $(b,explain) names it), \
     then each stream's SQL, logical algebra tree and cost-annotated \
     physical plan (estimated vs actual rows/work per operator) to \
     stderr."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let trace_arg =
  let doc =
    "Trace the pipeline and print the span tree (per-stage durations, work \
     units, rows) to stderr after the command finishes."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_json_arg =
  let doc =
    "Write the recorded spans, events and profile as JSON Lines to $(docv) \
     (one JSON object per line; see docs/OBSERVABILITY.md for the schema)."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let trace_chrome_arg =
  let doc =
    "Write the recorded spans and events as Chrome trace-event \
     JSON to $(docv); load the file in Perfetto (ui.perfetto.dev) or \
     chrome://tracing."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE" ~doc)

let diagnose_arg =
  let doc =
    "After executing, run the plan anomaly detector and print its report \
     (estimated-vs-actual q-errors per operator, spills, resilience \
     counters, event summary, GC pressure, hot paths) to stderr.  Implies \
     tracing."
  in
  Arg.(value & flag & info [ "diagnose" ] ~doc)

let skew_stats_arg =
  let doc =
    "Deliberately skew the catalog before planning: multiply TABLE's row \
     count and per-column NDVs by FACTOR (repeatable).  Models a stale \
     catalog; pair with $(b,--diagnose) to see the detector flag the \
     resulting misestimates."
  in
  Arg.(
    value & opt_all string []
    & info [ "skew-stats" ] ~docv:"TABLE=FACTOR" ~doc)

let profile_arg =
  let doc =
    "Print a profile of the run to stderr: the span log aggregated by \
     name-path into a tree of calls / total ms / self ms / rows / work / \
     bytes, plus a top-k hot-operator table with exact p50/p90/p99 \
     columns over the span durations."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Enable observability before any pipeline stage runs; emit the chosen
   sinks after everything finished. *)
let setup_obs ?(trace_chrome = None) ?(diagnose = false) ~trace ~trace_json
    ~profile () =
  if
    trace || profile || diagnose || trace_json <> None
    || trace_chrome <> None
  then Obs.Control.set_enabled true

let report_obs ?(trace_chrome = None) ?gc ~trace ~trace_json ~profile () =
  if trace then prerr_string (Obs.Report.render_spans ());
  if profile then prerr_string (Obs.Profile.render ?gc (Obs.Profile.capture ()));
  (match trace_json with
  | Some path -> Obs.Jsonl.write_file path
  | None -> ());
  match trace_chrome with
  | Some path -> Obs.Chrometrace.write_file path
  | None -> ()

(* Corrupt the catalog on purpose (--skew-stats Table=Factor): forces the
   lazy stats and scales the named tables in place, so every later
   [Cost.annotate] sees the stale figures. *)
let apply_skew (p : S.Middleware.prepared) specs =
  if specs <> [] then begin
    let st = Lazy.force p.S.Middleware.stats in
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | None ->
            invalid_arg ("--skew-stats expects TABLE=FACTOR, got: " ^ spec)
        | Some i ->
            let table = String.sub spec 0 i in
            let factor =
              try
                float_of_string
                  (String.sub spec (i + 1) (String.length spec - i - 1))
              with Failure _ ->
                invalid_arg ("--skew-stats: bad factor in: " ^ spec)
            in
            R.Stats.scale_table st table factor)
      specs
  end

let setup_db scale seed schema data =
  match schema with
    | None ->
        if data <> None then
          invalid_arg "--data requires --schema";
        Tpch.Gen.generate (Tpch.Gen.config ~seed:(Int64.of_int seed) scale)
    | Some schema_file ->
        let db = R.Source_desc.load_database (read_file schema_file) in
        (match data with
        | None -> ()
        | Some dir ->
            List.iter
              (fun table ->
                let path = Filename.concat dir (table ^ ".csv") in
                if Sys.file_exists path then begin
                  let n = R.Csv.load ~source:path db table (read_file path) in
                  Printf.eprintf "[loaded %d rows into %s]\n" n table
                end)
              (R.Database.table_names db);
            match R.Database.check_integrity db with
            | [] -> ()
            | violations ->
                Printf.eprintf "[warning: %d integrity violations, e.g. %s]\n"
                  (List.length violations) (List.hd violations));
        db

let setup query view_file scale seed schema data =
  let text = load_view query view_file in
  S.Middleware.prepare_text (setup_db scale seed schema data) text

(* The line every command names its partition with: the kept edges and
   the stream count. *)
let plan_line plan =
  Printf.sprintf "plan: %s (%d streams)" (S.Partition.to_string plan)
    (S.Partition.stream_count plan)

let run_cmd query view_file scale seed schema data strategy no_reduce pretty
    stream budget resilient fault_rate fault_seed retries parallel explain
    trace trace_json profile trace_chrome diagnose skew =
  setup_obs ~trace_chrome ~diagnose ~trace ~trace_json ~profile ();
  if stream && pretty then
    invalid_arg "--pretty needs the rows in memory; drop --stream";
  if fault_rate > 0.0 && not resilient then
    invalid_arg "--fault-rate requires --resilient";
  if parallel < 1 then invalid_arg "--parallel must be >= 1";
  let text = load_view query view_file in
  let db = setup_db scale seed schema data in
  (* the run the profile header's GC figures cover: all but the data *)
  let gc0 = Obs.Profile.gc_now () in
  let p = S.Middleware.prepare_text db text in
  apply_skew p skew;
  let reduce = not no_reduce in
  let plan =
    S.Middleware.(partition_of ~reduce p (strategy_of_string strategy))
  in
  let backend =
    R.Backend.create
      ~faults:(R.Backend.faults ~seed:fault_seed fault_rate)
      ?retries
      ~budget p.S.Middleware.db
  in
  let e =
    R.Domain_pool.with_pool ~domains:parallel (fun pool ->
        S.Middleware.execute ~reduce ~backend
          ~max_splits:(if resilient then 8 else 0)
          ~spool:stream ~pool p plan)
  in
  if explain then begin
    prerr_endline (plan_line plan);
    prerr_endline (S.Middleware.explain_execution p e)
  end;
  if pretty then
    print_string
      (Xmlkit.Serialize.to_pretty_string (S.Middleware.document_of p e))
  else begin
    S.Middleware.stream_to_channel p e stdout;
    print_newline ()
  end;
  Printf.eprintf "[%d stream(s), %d tuples, %d work units, %.1f ms transfer%s%s]\n"
    (List.length e.S.Middleware.per_stream)
    e.S.Middleware.tuples e.S.Middleware.work e.S.Middleware.transfer_ms
    (if stream then ", streamed" else "")
    (if resilient then ", resilient" else "");
  if resilient then
    Printf.eprintf "[resilience: %s]\n" (S.Middleware.resilience_summary e);
  if diagnose then prerr_string (S.Middleware.diagnose_report p e);
  report_obs ~trace_chrome ~gc:(Obs.Profile.gc_since gc0) ~trace ~trace_json
    ~profile ()

let explain_cmd query view_file scale seed schema data strategy no_reduce =
  let p = setup query view_file scale seed schema data in
  Printf.printf "view tree:\n%s\n" (S.View_tree.to_string p.S.Middleware.tree);
  Printf.printf "edge labels:\n%s\n\n"
    (S.Label.to_string p.S.Middleware.tree p.S.Middleware.labels);
  let reduce = not no_reduce in
  let plan =
    S.Middleware.(partition_of ~reduce p (strategy_of_string strategy))
  in
  Printf.printf "%s\n\n" (plan_line plan);
  print_endline (S.Middleware.explain ~reduce p plan)

let plan_cmd query view_file scale seed schema data no_reduce trace trace_json
    profile trace_chrome =
  setup_obs ~trace_chrome ~trace ~trace_json ~profile ();
  let p = setup query view_file scale seed schema data in
  let r = S.Middleware.gen_plan p ~reduce:(not no_reduce) in
  Printf.printf "%s\n" (S.Planner.to_string p.S.Middleware.tree r);
  Printf.printf "plan family: %d plans\n"
    (List.length (S.Planner.plans_of p.S.Middleware.tree r));
  let best = S.Planner.best_plan p.S.Middleware.tree r in
  Printf.printf "best %s\n" (plan_line best);
  report_obs ~trace_chrome ~trace ~trace_json ~profile ()

(* Run the view materialized with tracing forced on, print only the
   diagnostics report (to stdout — the report is the product here). *)
let diagnose_cmd query view_file scale seed schema data strategy no_reduce
    budget skew =
  Obs.Control.set_enabled true;
  let p = setup query view_file scale seed schema data in
  apply_skew p skew;
  let reduce = not no_reduce in
  let plan =
    S.Middleware.(partition_of ~reduce p (strategy_of_string strategy))
  in
  let backend = R.Backend.create ~budget p.S.Middleware.db in
  let e = S.Middleware.execute ~reduce ~backend p plan in
  print_string (S.Middleware.diagnose_report p e)

(* --- query server ------------------------------------------------------- *)

let socket_arg required_for =
  let doc =
    Printf.sprintf "Unix-domain socket path %s." required_for
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let statement_cache_arg =
  let doc = "Statement-cache capacity in entries (0 disables the tier)." in
  Arg.(
    value
    & opt int Server.Service.default_config.Server.Service.statement_capacity
    & info [ "statement-cache" ] ~docv:"N" ~doc)

let plan_cache_arg =
  let doc = "Plan-cache capacity in entries (0 disables the tier)." in
  Arg.(
    value
    & opt int Server.Service.default_config.Server.Service.plan_capacity
    & info [ "plan-cache" ] ~docv:"N" ~doc)

let result_cache_arg =
  let doc = "Result-cache capacity in bytes of XML (0 disables the tier)." in
  Arg.(
    value
    & opt int Server.Service.default_config.Server.Service.result_capacity
    & info [ "result-cache" ] ~docv:"BYTES" ~doc)

let admission_budget_arg =
  let doc =
    "Admission budget: maximum estimated work units in flight (0 = \
     unlimited).  Queries whose estimate alone exceeds it are rejected; \
     ones that do not fit right now wait in a bounded queue."
  in
  Arg.(value & opt int 0 & info [ "admission-budget" ] ~docv:"N" ~doc)

let max_queue_arg =
  let doc = "Waiting admissions beyond which queries are rejected." in
  Arg.(
    value
    & opt int Server.Service.default_config.Server.Service.max_queue
    & info [ "max-queue" ] ~docv:"N" ~doc)

let server_config domains statement_cache plan_cache result_cache
    admission_budget max_queue =
  {
    Server.Service.default_config with
    Server.Service.domains;
    statement_capacity = statement_cache;
    plan_capacity = plan_cache;
    result_capacity = result_cache;
    admission_budget;
    max_queue;
  }

(* --- serve telemetry flags ----------------------------------------------- *)

let telemetry_arg =
  let doc =
    "Enable live telemetry (spans and events) without any stderr \
     report.  Request and per-stage latencies reach the $(b,M) exposition \
     and $(b,silkroute monitor) with or without it; event counts need \
     it.  Implied by $(b,--trace)."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let trace_sample_arg =
  let doc =
    "Head-based trace sampling: record spans for 1 in $(docv) queries \
     (1 = every query, 0 = none).  Sampled-out queries still produce \
     events, stage times, latency and SLO samples and slow-query records."
  in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N" ~doc)

let slow_ms_arg =
  let doc =
    "Slow-query threshold in milliseconds: slower queries raise a \
     $(b,server.slow_query) event, count in the stats report, and — with \
     $(b,--slow-log) — append a structured JSONL record.  0 disables."
  in
  Arg.(value & opt float 0.0 & info [ "slow-ms" ] ~docv:"MS" ~doc)

let slow_log_arg =
  let doc =
    "Append slow-query records (trace id, digest, per-stage profile, GC \
     deltas, cache tiers) as JSON Lines to $(docv); requires \
     $(b,--slow-ms)."
  in
  Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE" ~doc)

let slo_target_arg =
  let doc =
    "Enable the rolling SLO monitor with this p99 latency target in \
     milliseconds (0 disables).  Breaching the target — or the error \
     budget — raises an $(b,slo.burn) event and shows in the exposition."
  in
  Arg.(value & opt float 0.0 & info [ "slo-target-ms" ] ~docv:"MS" ~doc)

let slo_error_budget_arg =
  let doc = "SLO error budget as a fraction of requests (default 0.01)." in
  Arg.(value & opt float 0.01 & info [ "slo-error-budget" ] ~docv:"FRAC" ~doc)

let serve_cmd scale seed schema data socket parallel statement_cache plan_cache
    result_cache admission_budget max_queue telemetry trace_sample slow_ms
    slow_log slo_target_ms slo_error_budget trace =
  setup_obs ~trace ~trace_json:None ~profile:false ();
  if telemetry then Obs.Control.set_enabled true;
  let socket =
    match socket with
    | Some path -> path
    | None -> invalid_arg "serve requires --socket PATH"
  in
  if trace_sample < 0 then invalid_arg "--trace-sample must be >= 0";
  if slow_log <> None && slow_ms <= 0.0 then
    invalid_arg "--slow-log requires --slow-ms";
  let db = setup_db scale seed schema data in
  let slo =
    if slo_target_ms <= 0.0 then None
    else
      Some
        {
          Obs.Slo.default_config with
          Obs.Slo.target_p99_ms = slo_target_ms;
          max_error_rate = slo_error_budget;
        }
  in
  let config =
    {
      (server_config parallel statement_cache plan_cache result_cache
         admission_budget max_queue)
      with
      Server.Service.trace_sample;
      slow_ms;
      slow_log;
      slo;
      (* a long-running server prunes each request's spans once served;
         --trace keeps them for the exit report *)
      retain_spans = trace;
    }
  in
  let server = Server.Service.create ~config db in
  let listener =
    try Server.Service.listen ~socket
    with e ->
      Server.Service.shutdown server;
      raise e
  in
  Printf.eprintf "[serving on %s: %d domain(s), caches %d/%d/%dB, budget %d]\n%!"
    socket parallel statement_cache plan_cache result_cache admission_budget;
  Server.Service.serve_unix server listener;
  prerr_endline (Server.Service.render_stats server);
  report_obs ~trace ~trace_json:None ~profile:false ()

let clients_arg =
  let doc = "Workload clients." in
  Arg.(
    value
    & opt int Server.Workload.default_config.Server.Workload.clients
    & info [ "clients" ] ~docv:"N" ~doc)

let requests_arg =
  let doc = "Requests per client." in
  Arg.(
    value
    & opt int Server.Workload.default_config.Server.Workload.requests_per_client
    & info [ "requests" ] ~docv:"N" ~doc)

let workload_seed_arg =
  let doc = "Workload script seed (the request mix is a pure function of it)." in
  Arg.(
    value
    & opt int Server.Workload.default_config.Server.Workload.seed
    & info [ "workload-seed" ] ~docv:"N" ~doc)

let invalidate_every_arg =
  let doc =
    "Client 0 replaces every $(docv)-th query with a data invalidation \
     (results flushed, plans kept; 0 disables)."
  in
  Arg.(
    value
    & opt int Server.Workload.default_config.Server.Workload.invalidate_every
    & info [ "invalidate-every" ] ~docv:"N" ~doc)

let threads_arg =
  let doc =
    "Give each in-process client its own thread (real concurrency through \
     admission and the pool) instead of the deterministic round-robin \
     replay."
  in
  Arg.(value & flag & info [ "threads" ] ~doc)

let no_verify_arg =
  let doc = "Skip the byte-identity check against the direct pipeline." in
  Arg.(value & flag & info [ "no-verify" ] ~doc)

let server_stats_arg =
  let doc = "After the replay, print the server's counter report." in
  Arg.(value & flag & info [ "server-stats" ] ~doc)

let shutdown_arg =
  let doc = "After the replay, tell the --socket server to shut down." in
  Arg.(value & flag & info [ "shutdown" ] ~doc)

let workload_cmd scale seed schema data socket parallel statement_cache
    plan_cache result_cache admission_budget max_queue clients requests
    workload_seed invalidate_every threads no_verify server_stats shutdown =
  let verify = not no_verify in
  let db = setup_db scale seed schema data in
  let views = Server.Workload.standard_views ~verify db in
  let cfg =
    {
      Server.Workload.default_config with
      Server.Workload.clients;
      requests_per_client = requests;
      seed = workload_seed;
      invalidate_every;
    }
  in
  let tally =
    match socket with
    | Some socket ->
        let tally = Server.Workload.run_socket ~verify ~socket ~views cfg in
        (if server_stats then
           match Server.Workload.request ~socket Server.Protocol.Stats with
           | Some (Server.Protocol.Info report) -> prerr_endline report
           | _ -> prerr_endline "[no stats reply]");
        if shutdown then
          ignore (Server.Workload.request ~socket Server.Protocol.Shutdown);
        tally
    | None ->
        let config =
          server_config parallel statement_cache plan_cache result_cache
            admission_budget max_queue
        in
        let server = Server.Service.create ~config db in
        let tally =
          Server.Workload.run_direct ~threads ~verify server ~views cfg
        in
        if server_stats then
          prerr_endline (Server.Service.render_stats server);
        Server.Service.shutdown server;
        tally
  in
  print_endline (Server.Workload.render tally);
  if tally.Server.Workload.mismatches <> [] then exit 1;
  if tally.Server.Workload.failed > 0 then exit 2

(* --- monitor ------------------------------------------------------------- *)

(* Top-style live view over the server's M/H telemetry endpoints: poll
   the exposition, parse it back through the same Expose module that
   rendered it, and print a compact frame.  qps comes from the
   requests_total delta between polls (whole-uptime average on the
   first frame and under --once). *)

let fetch_info socket req =
  match Server.Workload.request ~socket req with
  | Some (Server.Protocol.Info text) -> text
  | Some r ->
      invalid_arg
        ("monitor: unexpected " ^ Server.Protocol.reply_name r ^ " reply")
  | None -> invalid_arg "monitor: server closed the connection without replying"

let monitor_frame ~socket ~prev text =
  let p = Obs.Expose.parse text in
  let g ?(d = 0.0) key = Option.value ~default:d (Obs.Expose.find p key) in
  let uptime = g "silkroute_uptime_seconds" in
  let requests = g "silkroute_server_requests_total" in
  let qps =
    match prev with
    | Some (t0, r0) when uptime > t0 -> (requests -. r0) /. (uptime -. t0)
    | _ -> if uptime > 0.0 then requests /. uptime else 0.0
  in
  let ratio tier =
    100.0 *. g (Printf.sprintf "silkroute_cache_hit_ratio{tier=%S}" tier)
  in
  let quantile q =
    g (Printf.sprintf "silkroute_server_request_ms{quantile=%S}" q)
  in
  let slo_line =
    if Obs.Expose.find p "silkroute_slo_burn_rate" = None then
      "slo:      (not configured)"
    else
      Printf.sprintf
        "slo:      p99 %.2fms  burn %.2f  errors %.2f%%  breached %s"
        (g "silkroute_slo_p99_ms")
        (g "silkroute_slo_burn_rate")
        (100.0 *. g "silkroute_slo_error_rate")
        (if g "silkroute_slo_breached" > 0.0 then "YES" else "no")
  in
  let frame =
    String.concat "\n"
      [
        Printf.sprintf "silkroute monitor — %s   up %.1fs   epoch %.0f" socket
          uptime
          (g "silkroute_stats_epoch");
        Printf.sprintf
          "requests: %.0f  qps %.1f  rejected %.0f  failed %.0f  slow %.0f"
          requests qps
          (g "silkroute_server_rejected_total")
          (g "silkroute_server_failed_total")
          (g "silkroute_server_slow_queries_total");
        Printf.sprintf
          "cache:    hit%% statement %.1f  plan %.1f  result %.1f"
          (ratio "statement") (ratio "plan") (ratio "result");
        Printf.sprintf "latency:  p50 %.2fms  p90 %.2fms  p99 %.2fms"
          (quantile "0.5") (quantile "0.9") (quantile "0.99");
        slo_line;
        Printf.sprintf
          "backlog:  pool queue %.0f  in-flight work %.1f  waiting %.0f"
          (g "silkroute_pool_queue_depth")
          (g "silkroute_admission_in_flight_work")
          (g "silkroute_admission_waiting");
      ]
  in
  (frame, (uptime, requests))

let monitor_cmd socket once raw interval =
  let socket =
    match socket with
    | Some path -> path
    | None -> invalid_arg "monitor requires --socket PATH"
  in
  if interval <= 0.0 then invalid_arg "--interval must be positive";
  if raw then print_string (fetch_info socket Server.Protocol.Metrics)
  else if once then begin
    let frame, _ = monitor_frame ~socket ~prev:None (fetch_info socket Server.Protocol.Metrics) in
    print_endline frame;
    print_endline ("health:   " ^ fetch_info socket Server.Protocol.Health)
  end
  else begin
    (* a server that is not there at the start is an input error; one
       that goes away later ends the view *)
    let rec loop prev text =
      let frame, cur = monitor_frame ~socket ~prev text in
      (* repaint in place, top-style *)
      print_string "\027[2J\027[H";
      print_endline frame;
      print_string "\n(ctrl-c to quit)\n";
      flush stdout;
      Unix.sleepf interval;
      match fetch_info socket Server.Protocol.Metrics with
      | text -> loop (Some cur) text
      | exception (Unix.Unix_error _ | Invalid_argument _ | End_of_file) ->
          prerr_endline "monitor: server went away"
    in
    loop None (fetch_info socket Server.Protocol.Metrics)
  end

let run_t =
  Term.(
    const run_cmd $ query_arg $ view_arg $ scale_arg $ seed_arg $ schema_arg
    $ data_arg $ strategy_arg $ no_reduce_arg $ pretty_arg $ stream_arg
    $ budget_arg $ resilient_arg $ fault_rate_arg $ fault_seed_arg
    $ retries_arg $ parallel_arg
    $ explain_flag_arg $ trace_arg
    $ trace_json_arg
    $ profile_arg $ trace_chrome_arg $ diagnose_arg
    $ skew_stats_arg)

let explain_t =
  Term.(
    const explain_cmd $ query_arg $ view_arg $ scale_arg $ seed_arg
    $ schema_arg $ data_arg $ strategy_arg $ no_reduce_arg)

let plan_t =
  Term.(
    const plan_cmd $ query_arg $ view_arg $ scale_arg $ seed_arg $ schema_arg
    $ data_arg $ no_reduce_arg $ trace_arg $ trace_json_arg
    $ profile_arg $ trace_chrome_arg)

let diagnose_t =
  Term.(
    const diagnose_cmd $ query_arg $ view_arg $ scale_arg $ seed_arg
    $ schema_arg $ data_arg $ strategy_arg $ no_reduce_arg $ budget_arg
    $ skew_stats_arg)

let serve_t =
  Term.(
    const serve_cmd $ scale_arg $ seed_arg $ schema_arg $ data_arg
    $ socket_arg "to listen on (required)"
    $ parallel_arg $ statement_cache_arg $ plan_cache_arg $ result_cache_arg
    $ admission_budget_arg $ max_queue_arg
    $ telemetry_arg $ trace_sample_arg $ slow_ms_arg $ slow_log_arg
    $ slo_target_arg $ slo_error_budget_arg
    $ trace_arg)

let monitor_once_arg =
  let doc = "Print one frame (plus the health line) and exit." in
  Arg.(value & flag & info [ "once" ] ~doc)

let monitor_raw_arg =
  let doc = "Print the raw Prometheus-style exposition text and exit." in
  Arg.(value & flag & info [ "raw" ] ~doc)

let monitor_interval_arg =
  let doc = "Seconds between polls in the live view." in
  Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc)

let monitor_t =
  Term.(
    const monitor_cmd
    $ socket_arg "of a running server (required)"
    $ monitor_once_arg $ monitor_raw_arg $ monitor_interval_arg)

let workload_t =
  Term.(
    const workload_cmd $ scale_arg $ seed_arg $ schema_arg $ data_arg
    $ socket_arg "of a running server (default: serve in-process)"
    $ parallel_arg $ statement_cache_arg $ plan_cache_arg $ result_cache_arg
    $ admission_budget_arg $ max_queue_arg
    $ clients_arg $ requests_arg
    $ workload_seed_arg $ invalidate_every_arg $ threads_arg $ no_verify_arg
    $ server_stats_arg $ shutdown_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Materialize the XML view.") run_t;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the query server: statement/plan/result caches and \
            admission control in front of the worker-domain pool, speaking \
            the length-prefixed protocol on a Unix-domain socket.")
      serve_t;
    Cmd.v
      (Cmd.info "workload"
         ~doc:
           "Replay a deterministic multi-client request mix against the \
            server (in-process, or over --socket) and verify every result \
            byte-for-byte against the direct pipeline.")
      workload_t;
    Cmd.v
      (Cmd.info "monitor"
         ~doc:
           "Poll a running server's telemetry endpoint and render a \
            top-style live view: qps, cache hit ratios, latency \
            percentiles, SLO burn and queue depth.  --once prints a \
            single frame, --raw the exposition text.")
      monitor_t;
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Show the view tree, labels, partition, and each stream's SQL, \
            logical algebra and cost-annotated physical plan.")
      explain_t;
    Cmd.v
      (Cmd.info "plan"
         ~doc:
           "Run the greedy plan-generation algorithm; its best plan is the \
            one $(b,--strategy greedy) runs with the same flags.")
      plan_t;
    Cmd.v
      (Cmd.info "diagnose"
         ~doc:
           "Materialize the view with tracing on and print the plan \
            diagnostics report: per-operator q-errors, spills, resilience \
            counters, event summary, GC pressure and hot paths.")
      diagnose_t;
  ]

(* Bad input — a flag value, a view, a schema, a CSV file, a socket
   path nothing listens on or that cannot be bound — fails with a typed
   exception below the command: an error of the input (exit 123), and
   so does a run whose budget or fault rate no plan can meet.  Anything
   else is a bug and keeps the internal-error report (exit 125). *)
let input_error = function
  | Invalid_argument m | S.Rxl_parser.Parse_error m | S.Rxl.Ill_formed m
  | R.Csv.Csv_error (m, _) (* names the file and row *) ->
      Some m
  | (S.Middleware.Plan_timeout _ | R.Backend.Backend_error _) as e ->
      Some (Printexc.to_string e)
  | S.Rxl_lexer.Lex_error (m, at) ->
      Some (Printf.sprintf "RXL offset %d: %s" at m)
  | S.View_tree.Unsupported m -> Some ("unsupported view: " ^ m)
  | R.Source_desc.Syntax_error (m, line) ->
      Some (Printf.sprintf "schema line %d: %s" line m)
  | Unix.Unix_error (e, (("connect" | "bind") as call), path) when path <> "" ->
      Some (Printf.sprintf "%s %s: %s" call path (Unix.error_message e))
  | _ -> None

let () =
  let info =
    Cmd.info "silkroute" ~version:"1.0"
      ~doc:"SilkRoute: efficient evaluation of XML middle-ware queries"
  in
  exit
    (try Cmd.eval ~catch:false (Cmd.group info cmds) with
    | e -> (
        let bt = Printexc.get_backtrace () in
        match input_error e with
        | Some msg ->
            prerr_endline ("silkroute: " ^ msg);
            Cmd.Exit.some_error
        | None ->
            Printf.eprintf "silkroute: internal error, uncaught exception:\n%s\n%s"
              (Printexc.to_string e) bt;
            Cmd.Exit.internal_error))
