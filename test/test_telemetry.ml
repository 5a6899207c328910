(* The telemetry layer added for the live server: exposition
   render/parse round trips, the rolling SLO tracker under a scripted
   clock, the bounded slow-log writer, trace-id propagation through the
   worker pool, and a multi-domain stress on the event counts and the
   service's latency histograms. *)

open Server
module E = Obs.Expose

let db = lazy (Tpch.Gen.generate (Tpch.Gen.config 0.05))

let with_obs f =
  Obs.Span.reset ();
  Obs.Event.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Event.reset ())
    (fun () -> Obs.Control.with_enabled true f)

(* --- exposition --------------------------------------------------------- *)

let test_expose_roundtrip () =
  let samples =
    [
      E.sample E.Counter "requests_total" 42.0;
      E.sample ~labels:[ ("tier", "plan"); ("op", "find") ] E.Counter
        "cache_hits_total" 7.0;
      E.sample E.Gauge "queue_depth" 3.5;
      E.sample ~labels:[ ("quantile", "0.5") ] E.Summary "request_ms" 1.25;
      E.sample ~labels:[ ("quantile", "0.99") ] E.Summary "request_ms" 9.0;
      E.sample E.Summary "request_ms_sum" 10.25;
      E.sample E.Summary "request_ms_count" 2.0;
    ]
  in
  let text = E.render samples in
  let parsed = E.parse text in
  (* every sample comes back, in order, under its exact key syntax *)
  Alcotest.(check (list string)) "keys"
    [ "requests_total"; "cache_hits_total{tier=\"plan\",op=\"find\"}";
      "queue_depth"; "request_ms{quantile=\"0.5\"}";
      "request_ms{quantile=\"0.99\"}"; "request_ms_sum"; "request_ms_count" ]
    (List.map fst parsed.E.values);
  List.iter2
    (fun s (key, v) ->
      Alcotest.(check (float 0.0)) ("value of " ^ key) s.E.s_value v)
    samples parsed.E.values;
  Alcotest.(check (option (float 0.0))) "labeled lookup" (Some 7.0)
    (E.find parsed "cache_hits_total{tier=\"plan\",op=\"find\"}");
  Alcotest.(check (option string)) "counter family" (Some "counter")
    (List.assoc_opt "requests_total" parsed.E.types);
  (* the summary's _sum/_count share one family with its quantiles *)
  Alcotest.(check (option string)) "summary family" (Some "summary")
    (List.assoc_opt "request_ms" parsed.E.types);
  Alcotest.(check (option string)) "no _sum family" None
    (List.assoc_opt "request_ms_sum" parsed.E.types)

let test_expose_parse_errors () =
  (match E.parse "nonsense line here" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception E.Parse_error _ -> ());
  (match E.parse "# TYPE x sousaphone\nx 1\n" with
  | _ -> Alcotest.fail "expected Parse_error on unknown kind"
  | exception E.Parse_error _ -> ());
  match E.parse "x notanumber\n" with
  | _ -> Alcotest.fail "expected Parse_error on bad value"
  | exception E.Parse_error _ -> ()

let test_expose_summary () =
  let h = Obs.Histogram.create Obs.Histogram.duration_bounds in
  let empty = E.summary ~labels:[ ("stage", "tagger") ] "lat" h in
  Alcotest.(check (list string)) "an empty summary: sum and count only"
    [ "lat_sum{stage=\"tagger\"}"; "lat_count{stage=\"tagger\"}" ]
    (List.map fst (E.parse (E.render empty)).E.values);
  Obs.Histogram.observe h 5.0;
  Obs.Histogram.observe h 15.0;
  let parsed = E.parse (E.render (E.summary ~labels:[ ("stage", "tagger") ] "lat" h)) in
  Alcotest.(check (option (float 0.0))) "summary count" (Some 2.0)
    (E.find parsed "lat_count{stage=\"tagger\"}");
  Alcotest.(check (option (float 0.0))) "summary sum" (Some 20.0)
    (E.find parsed "lat_sum{stage=\"tagger\"}");
  Alcotest.(check bool) "p99 sample present" true
    (E.find parsed "lat{stage=\"tagger\",quantile=\"0.99\"}" <> None);
  Alcotest.(check (option string)) "one summary family" (Some "summary")
    (List.assoc_opt "lat" parsed.E.types)

(* --- SLO tracker --------------------------------------------------------- *)

let slo_config =
  {
    Obs.Slo.window_ms = 1_000.0;
    windows = 4;
    target_p99_ms = 100.0;
    max_error_rate = 0.10;
  }

let events_named name =
  List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.name = name)
    (Obs.Event.events ())

let test_slo_burn_and_recover () =
  with_obs (fun () ->
      let t = Obs.Slo.create ~config:slo_config () in
      (* healthy traffic: well under the p99 target *)
      for i = 0 to 99 do
        Obs.Slo.record t ~now_ms:(float_of_int i) 10.0
      done;
      let s = Obs.Slo.snapshot t ~now_ms:99.0 in
      Alcotest.(check int) "samples" 100 s.Obs.Slo.samples;
      Alcotest.(check bool) "not breached" false s.Obs.Slo.breached;
      Alcotest.(check int) "no burn event" 0 (List.length (events_named "slo.burn"));
      (* sustained slowness pushes p99 past the target: exactly one
         edge-triggered burn event, however long the breach lasts *)
      for i = 100 to 299 do
        Obs.Slo.record t ~now_ms:(float_of_int i) 500.0
      done;
      let s = Obs.Slo.snapshot t ~now_ms:299.0 in
      Alcotest.(check bool) "breached" true s.Obs.Slo.breached;
      Alcotest.(check bool) "burn rate over 1" true (s.Obs.Slo.burn_rate > 1.0);
      Alcotest.(check int) "one burn event" 1 (List.length (events_named "slo.burn"));
      (* fast traffic again, far enough ahead that the slow windows have
         slid out of the ring: one recovery event *)
      for i = 0 to 199 do
        Obs.Slo.record t ~now_ms:(10_000.0 +. float_of_int i) 10.0
      done;
      let s = Obs.Slo.snapshot t ~now_ms:10_199.0 in
      Alcotest.(check bool) "recovered" false s.Obs.Slo.breached;
      Alcotest.(check int) "slow windows recycled" 200 s.Obs.Slo.samples;
      Alcotest.(check int) "one recovery event" 1
        (List.length (events_named "slo.recover")))

let test_slo_error_budget () =
  with_obs (fun () ->
      let t = Obs.Slo.create ~config:slo_config () in
      (* 20% errors against a 10% budget: the error burn alone breaches,
         even though every latency sample is fast *)
      for i = 0 to 79 do
        Obs.Slo.record t ~now_ms:(float_of_int i) 1.0
      done;
      for i = 80 to 99 do
        Obs.Slo.record t ~error:true ~now_ms:(float_of_int i) 0.0
      done;
      let s = Obs.Slo.snapshot t ~now_ms:99.0 in
      Alcotest.(check int) "errors" 20 s.Obs.Slo.errors;
      Alcotest.(check (float 1e-9)) "error rate" 0.20 s.Obs.Slo.error_rate;
      Alcotest.(check (float 1e-9)) "error burn" 2.0 s.Obs.Slo.error_burn;
      Alcotest.(check bool) "latency is fine" true
        (s.Obs.Slo.latency_burn < 1.0);
      Alcotest.(check bool) "breached on errors alone" true s.Obs.Slo.breached)

let test_slo_window_slide () =
  with_obs (fun () ->
      let t = Obs.Slo.create ~config:slo_config () in
      (* one sample per window across the whole ring *)
      for w = 0 to 3 do
        Obs.Slo.record t ~now_ms:(float_of_int w *. 1_000.0) 10.0
      done;
      let s = Obs.Slo.snapshot t ~now_ms:3_000.0 in
      Alcotest.(check int) "whole ring live" 4 s.Obs.Slo.samples;
      Alcotest.(check int) "covered windows" 4 s.Obs.Slo.covered_windows;
      (* two windows later, the two oldest have slid out *)
      let s = Obs.Slo.snapshot t ~now_ms:5_000.0 in
      Alcotest.(check int) "oldest slid out" 2 s.Obs.Slo.samples)

(* --- slow-query log ------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "silkroute_slowlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_slowlog_writes_jsonl () =
  with_temp_file (fun path ->
      let log = Slowlog.create ~path () in
      for i = 0 to 9 do
        Alcotest.(check bool) "accepted" true
          (Slowlog.write log
             (Obs.Json.Obj
                [ ("seq", Obs.Json.Int i); ("ms", Obs.Json.Float 12.5) ]))
      done;
      Slowlog.close log;
      Alcotest.(check int) "written" 10 (Slowlog.written log);
      Alcotest.(check int) "nothing dropped" 0 (Slowlog.dropped log);
      let lines = read_lines path in
      Alcotest.(check int) "one line per record" 10 (List.length lines);
      (* close drained in order, and every line is valid JSON *)
      List.iteri
        (fun i line ->
          match Obs.Json.member "seq" (Obs.Json.parse line) with
          | Some (Obs.Json.Int seq) -> Alcotest.(check int) "in order" i seq
          | _ -> Alcotest.failf "bad record: %s" line)
        lines)

let test_slowlog_drops_when_closed () =
  with_temp_file (fun path ->
      let log = Slowlog.create ~capacity:1 ~path () in
      Slowlog.close log;
      Slowlog.close log;
      (* idempotent *)
      Alcotest.(check bool) "write after close refused" false
        (Slowlog.write log (Obs.Json.Obj []));
      Alcotest.(check int) "drop counted" 1 (Slowlog.dropped log);
      Alcotest.(check int) "nothing written" 0 (Slowlog.written log);
      Alcotest.(check (list string)) "file empty" [] (read_lines path))

(* --- trace propagation through the pool ---------------------------------- *)

let test_trace_id_through_pool () =
  with_obs (fun () ->
      let config = { Service.default_config with Service.domains = 2 } in
      let t = Service.create ~config (Lazy.force db) in
      Fun.protect
        ~finally:(fun () -> Service.shutdown t)
        (fun () ->
          match
            Service.query t ~view:Silkroute.Queries.query1_text
              ~strategy:"partitioned" ~reduce:false
          with
          | Protocol.Result _ ->
              let spans = Obs.Span.spans () in
              Alcotest.(check bool) "spans recorded" true (spans <> []);
              let ids =
                List.filter_map
                  (fun s -> Obs.Span.find_attr s "trace_id")
                  spans
              in
              (* every span — including those recorded on pool worker
                 domains — carries the request's trace id *)
              Alcotest.(check int) "every span tagged"
                (List.length spans) (List.length ids);
              Alcotest.(check int) "exactly one trace id" 1
                (List.length (List.sort_uniq compare ids));
              Alcotest.(check bool) "sub-queries crossed the pool" true
                (List.exists
                   (fun (s : Obs.Span.t) -> s.Obs.Span.name = "execute.stream")
                   spans)
          | r -> Alcotest.failf "expected a result, got %s"
                   (Protocol.reply_name r)))

(* Concurrent sessions run as threads of one domain (as [serve_unix]
   runs them); each thread's span nesting must stay its own, so no span
   may parent under a span of another request. *)
let test_concurrent_sessions_keep_their_trees () =
  with_obs (fun () ->
      let config =
        { Service.default_config with Service.domains = 2; result_capacity = 0 }
      in
      let t = Service.create ~config (Lazy.force db) in
      Fun.protect
        ~finally:(fun () -> Service.shutdown t)
        (fun () ->
          let session c =
            Thread.create
              (fun () ->
                for i = 0 to 5 do
                  let view =
                    if (c + i) mod 2 = 0 then Silkroute.Queries.query1_text
                    else Silkroute.Queries.query2_text
                  in
                  ignore
                    (Service.query t ~view ~strategy:"partitioned"
                       ~reduce:false)
                done)
              ()
          in
          List.iter Thread.join (List.init 4 session);
          let spans = Obs.Span.spans () in
          let by_id = Hashtbl.create 1024 in
          List.iter
            (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.Obs.Span.id s)
            spans;
          let trace s = Obs.Span.find_attr s "trace_id" in
          let foreign =
            List.filter
              (fun (s : Obs.Span.t) ->
                match s.Obs.Span.parent with
                | None -> false
                | Some pid -> (
                    match Hashtbl.find_opt by_id pid with
                    | Some parent -> trace parent <> trace s
                    | None -> true))
              spans
          in
          Alcotest.(check bool) "spans recorded" true (List.length spans > 24);
          Alcotest.(check int)
            (Printf.sprintf "spans parented under another request (of %d)"
               (List.length spans))
            0 (List.length foreign)))

(* --- multi-domain stress ---------------------------------------------------- *)

(* Events counted from several domains at once lose no increment; the
   service's latency account, fed by concurrent sessions while a reader
   scrapes, never shows a request without its service-stage sample. *)
let test_metrics_multi_domain_stress () =
  with_obs (fun () ->
      let domains = 4 and per_domain = 2_000 in
      let worker d =
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              if (d + i) mod 2 = 0 then Obs.Event.debug "stress.even"
              else Obs.Event.info "stress.odd"
            done)
      in
      List.iter Domain.join (List.init domains worker);
      Alcotest.(check int) "every event counted"
        (domains * per_domain)
        (Obs.Event.count Obs.Event.Debug + Obs.Event.count Obs.Event.Info);
      Alcotest.(check int) "levels split evenly" (domains * per_domain / 2)
        (Obs.Event.count Obs.Event.Debug);
      Alcotest.(check int) "per-level counts add up to recorded"
        (Obs.Event.recorded ())
        (Obs.Event.count Obs.Event.Debug + Obs.Event.count Obs.Event.Info));
  let config =
    { Service.default_config with Service.domains = 2; trace_sample = 0 }
  in
  let t = Service.create ~config (Lazy.force db) in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let sessions = 3 and per_session = 8 in
      let stop = Atomic.make false and torn = ref false in
      let scrape () =
        match Service.handle t Protocol.Metrics with
        | Protocol.Info text ->
            let p = E.parse text in
            let get k = Option.value ~default:(-1.0) (E.find p k) in
            ( get "silkroute_server_request_ms_count",
              get "silkroute_stage_ms_count{stage=\"service\"}" )
        | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r)
      in
      let reader =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              let requests, service = scrape () in
              if requests <> service then torn := true;
              Thread.yield ()
            done)
          ()
      in
      let session k =
        Thread.create
          (fun () ->
            for i = 1 to per_session do
              ignore
                (Service.query t ~view:Silkroute.Queries.fragment_text
                   ~strategy:(if (k + i) mod 2 = 0 then "unified" else "partitioned")
                   ~reduce:false)
            done)
          ()
      in
      List.iter Thread.join (List.init sessions session);
      Atomic.set stop true;
      Thread.join reader;
      Alcotest.(check bool) "no scrape saw a request without its stages" false
        !torn;
      let requests, service = scrape () in
      Alcotest.(check (float 0.0)) "every request observed"
        (float_of_int (sessions * per_session)) requests;
      Alcotest.(check (float 0.0)) "every service stage observed" requests service)

(* --- workload measured latency ------------------------------------------- *)

let test_workload_measured_latency () =
  let views = Workload.standard_views (Lazy.force db) in
  let mix =
    {
      Workload.default_config with
      Workload.clients = 2;
      requests_per_client = 5;
      invalidate_every = 0;
    }
  in
  let t = Service.create (Lazy.force db) in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let tally = Workload.run_direct t ~views mix in
      Alcotest.(check int) "one sample per query" tally.Workload.queries
        tally.Workload.lat_samples;
      Alcotest.(check bool) "percentiles ordered" true
        (tally.Workload.lat_p50_ms <= tally.Workload.lat_p90_ms
        && tally.Workload.lat_p90_ms <= tally.Workload.lat_p99_ms);
      Alcotest.(check bool) "positive latency" true
        (tally.Workload.lat_p50_ms > 0.0))

let suite =
  [
    Alcotest.test_case "expose: render/parse roundtrip" `Quick
      test_expose_roundtrip;
    Alcotest.test_case "expose: parse errors" `Quick test_expose_parse_errors;
    Alcotest.test_case "expose: histogram summary" `Quick test_expose_summary;
    Alcotest.test_case "slo: burn + recover edges" `Quick
      test_slo_burn_and_recover;
    Alcotest.test_case "slo: error budget" `Quick test_slo_error_budget;
    Alcotest.test_case "slo: window slide" `Quick test_slo_window_slide;
    Alcotest.test_case "slowlog: ordered JSONL" `Quick test_slowlog_writes_jsonl;
    Alcotest.test_case "slowlog: drops after close" `Quick
      test_slowlog_drops_when_closed;
    Alcotest.test_case "trace id crosses the pool" `Quick
      test_trace_id_through_pool;
    Alcotest.test_case "concurrent sessions keep their span trees" `Quick
      test_concurrent_sessions_keep_their_trees;
    Alcotest.test_case "metrics: multi-domain stress" `Quick
      test_metrics_multi_domain_stress;
    Alcotest.test_case "workload: measured percentiles" `Quick
      test_workload_measured_latency;
  ]
