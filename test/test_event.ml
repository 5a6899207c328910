(* The structured event log and flight recorder: ring wraparound, level
   filtering, gating, dump plumbing, dump-on-timeout through the real
   middleware/backend path, deterministic event sequences under
   identical fault seeds, GC telemetry on spans, and the q-error
   anomaly detector with its report. *)

open Silkroute
module R = Relational
module B = Relational.Backend

let install_test_clock () =
  let t = ref 0L in
  Obs.Clock.set_source (fun () ->
      t := Int64.add !t 1_000L;
      !t)

let with_obs f =
  install_test_clock ();
  Obs.Span.reset ();
  Obs.Event.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Event.reset ();
      Obs.Span.use_default_gc_source ();
      Obs.Clock.use_default ())
    (fun () -> Obs.Control.with_enabled true f)

let tpch scale = Tpch.Gen.generate (Tpch.Gen.config scale)
let supplier_q = "SELECT s.name AS n FROM Supplier AS s ORDER BY n"

let names () = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) (Obs.Event.events ())

(* --- ring buffer --------------------------------------------------------- *)

let test_ring_wraparound () =
  with_obs (fun () ->
      Obs.Event.set_capacity 4;
      for i = 0 to 5 do
        Obs.Event.info (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check (list string))
        "last capacity events retained, oldest first"
        [ "e2"; "e3"; "e4"; "e5" ] (names ());
      Alcotest.(check (list int))
        "seq survives eviction" [ 2; 3; 4; 5 ]
        (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) (Obs.Event.events ()));
      Alcotest.(check int) "all emissions recorded" 6 (Obs.Event.recorded ());
      Alcotest.(check int) "two evicted" 2 (Obs.Event.dropped ()))

let test_level_filtering () =
  with_obs (fun () ->
      Obs.Event.set_threshold Obs.Event.Warn;
      Obs.Event.debug "d";
      Obs.Event.info "i";
      Obs.Event.warn "w";
      Obs.Event.error "e";
      Alcotest.(check (list string)) "below threshold dropped" [ "w"; "e" ] (names ());
      Alcotest.(check int)
        "counted only at recorded levels" 0
        (Obs.Event.count Obs.Event.Debug);
      Alcotest.(check int) "warn counted" 1 (Obs.Event.count Obs.Event.Warn))

let test_disabled_is_silent () =
  with_obs (fun () ->
      Obs.Control.with_enabled false (fun () ->
          Obs.Event.error "boom";
          Obs.Event.dump ~reason:"nope");
      Alcotest.(check (list string)) "nothing recorded" [] (names ());
      Alcotest.(check int) "no dumps" 0 (Obs.Event.dump_count ()))

let test_dump_sink () =
  with_obs (fun () ->
      let captured = ref [] in
      Obs.Event.set_dump_sink (fun d -> captured := d :: !captured);
      Obs.Event.warn "before-dump" ~attrs:[ Obs.Attr.int "n" 7 ];
      Obs.Event.dump ~reason:"unit-test";
      match !captured with
      | [ d ] ->
          Alcotest.(check string) "reason" "unit-test" d.Obs.Event.reason;
          Alcotest.(check (list string))
            "ring contents handed to sink" [ "before-dump" ]
            (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) d.Obs.Event.dumped);
          Alcotest.(check bool)
            "render mentions reason and event" true
            (let r = Obs.Event.render d in
             let has needle =
               let nl = String.length needle and rl = String.length r in
               let rec go i = i + nl <= rl && (String.sub r i nl = needle || go (i + 1)) in
               go 0
             in
             has "unit-test" && has "before-dump" && has "n=7")
      | ds -> Alcotest.failf "expected 1 dump, got %d" (List.length ds))

(* --- dumps from the real pipeline ---------------------------------------- *)

let test_dump_on_plan_timeout () =
  with_obs (fun () ->
      let captured = ref [] in
      Obs.Event.set_dump_sink (fun d -> captured := d :: !captured);
      let db = tpch 0.1 in
      let p = Middleware.prepare_text db Queries.query1_text in
      let backend = B.create ~budget:10 db in
      (try
         ignore
           (Middleware.execute ~backend p (Partition.unified p.Middleware.tree));
         Alcotest.fail "tiny budget must time out"
       with Middleware.Plan_timeout _ -> ());
      match !captured with
      | [ d ] ->
          Alcotest.(check string) "reason" "plan-timeout" d.Obs.Event.reason;
          Alcotest.(check bool)
            "the timeout event itself is in the ring" true
            (List.exists
               (fun (e : Obs.Event.t) ->
                 e.Obs.Event.name = "middleware.plan_timeout"
                 && e.Obs.Event.level = Obs.Event.Error)
               d.Obs.Event.dumped)
      | ds -> Alcotest.failf "expected 1 dump, got %d" (List.length ds))

(* Regression: the timed-out stream has one number everywhere it is
   shown — the Plan_timeout payload and message, the
   middleware.plan_timeout event, the execute.stream span and explain —
   counted from 1.  The span and the event counted from 0. *)
let test_plan_timeout_numbers_from_one () =
  with_obs (fun () ->
      Obs.Event.set_dump_sink (fun _ -> ());
      let db = tpch 0.1 in
      let p = Middleware.prepare_text db Queries.query1_text in
      let plan = Partition.fully_partitioned p.Middleware.tree in
      let works =
        List.map
          (fun (se : Middleware.stream_exec) -> se.se_stats.R.Executor.work)
          (Middleware.execute p plan).per_stream
      in
      (* the first stream past the first one to outweigh all before it *)
      let rec first_heavier i heaviest = function
        | w :: rest ->
            if i > 0 && w > heaviest then (i, w)
            else first_heavier (i + 1) (max heaviest w) rest
        | [] -> Alcotest.fail "no stream outweighs the first"
      in
      let i, w = first_heavier 0 0 works in
      let backend = B.create ~budget:(w - 1) db in
      match Middleware.execute ~backend p plan with
      | _ -> Alcotest.fail "the budget must time out"
      | exception (Middleware.Plan_timeout t as exn) ->
          let number = i + 1 in
          Alcotest.(check int) "payload" number t.timeout_stream;
          Alcotest.(check bool) "message" true
            (String.starts_with
               ~prefix:(Printf.sprintf "Plan_timeout(stream %d, root %s," number
                          t.timeout_root)
               (Printexc.to_string exn));
          let int_attr attrs key =
            match List.assoc_opt key attrs with
            | Some (Obs.Attr.Int n) -> n
            | _ -> Alcotest.failf "no int %s" key
          in
          (* every stream over the budget reports its own timeout; the
             payload is the first in plan order *)
          let root = Obs.Attr.String t.timeout_root in
          (match
             List.filter
               (fun (e : Obs.Event.t) ->
                 e.name = "middleware.plan_timeout"
                 && List.assoc_opt "root" e.attrs = Some root)
               (Obs.Event.events ())
           with
          | [ e ] -> Alcotest.(check int) "event" number (int_attr e.attrs "stream")
          | es -> Alcotest.failf "%d plan_timeout events" (List.length es));
          (match
             List.filter
               (fun s -> Obs.Span.find_attr s "timeout.root" = Some root)
               (Obs.Span.spans ())
           with
          | [ s ] ->
              Alcotest.(check int) "span" number
                (int_attr (Obs.Span.attrs s) "timeout.stream")
          | ss -> Alcotest.failf "%d timed-out spans" (List.length ss));
          let header =
            Printf.sprintf "-- stream %d (root %s):" number t.timeout_root
          in
          Alcotest.(check bool) "explain" true
            (List.mem header
               (String.split_on_char '\n' (Middleware.explain p plan))))

let test_deterministic_sequence () =
  let run () =
    install_test_clock ();
    Obs.Span.reset ();
    Obs.Event.reset ();
    Obs.Control.with_enabled true (fun () ->
        let db = tpch 0.1 in
        let backend =
          B.create ~faults:(B.faults ~seed:7 0.8) ~retries:4 db
        in
        (try
           ignore
             (B.execute_plan backend (B.plan db supplier_q))
         with B.Backend_error _ -> ());
        List.map
          (fun (e : Obs.Event.t) ->
            ( e.Obs.Event.seq,
              e.Obs.Event.ts_ns,
              Obs.Event.level_name e.Obs.Event.level,
              e.Obs.Event.name,
              List.map
                (fun (k, v) -> (k, Obs.Attr.value_to_string v))
                e.Obs.Event.attrs ))
          (Obs.Event.events ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Event.reset ();
      Obs.Clock.use_default ())
    (fun () ->
      let a = run () and b = run () in
      Alcotest.(check bool) "some events were emitted" true (a <> []);
      Alcotest.(check bool)
        "identical seed, clock => identical event sequence" true (a = b))

(* --- GC telemetry --------------------------------------------------------- *)

let test_span_gc_deltas () =
  with_obs (fun () ->
      (* fake GC source: every reading adds 100 minor words and 10
         major words *)
      let minor = ref 0.0 and major = ref 0.0 in
      Obs.Span.set_gc_source (fun () ->
          minor := !minor +. 100.0;
          major := !major +. 10.0;
          (!minor, !major));
      Obs.Span.with_span "outer" (fun () ->
          Obs.Span.with_span "inner" (fun () -> ()));
      let span name =
        List.find
          (fun (s : Obs.Span.t) -> s.Obs.Span.name = name)
          (Obs.Span.spans ())
      in
      (* outer: open reading 1, close reading 4 -> 3 deltas; inner: open
         reading 2, close reading 3 -> 1 delta *)
      Alcotest.(check (float 1e-9)) "outer minor delta" 300.0
        (span "outer").Obs.Span.gc_minor_words;
      Alcotest.(check (float 1e-9)) "inner minor delta" 100.0
        (span "inner").Obs.Span.gc_minor_words;
      Alcotest.(check (float 1e-9)) "outer major delta" 30.0
        (span "outer").Obs.Span.gc_major_words;
      let prof = Obs.Profile.capture () in
      let node =
        List.find
          (fun n -> n.Obs.Profile.name = "outer")
          prof.Obs.Profile.roots
      in
      (* outer's own delta already spans the inner interval, so the
         profile node carries it without double-counting *)
      Alcotest.(check (float 1e-9))
        "profile aggregates include descendants" 300.0
        node.Obs.Profile.minor_words)

(* --- anomaly detector ----------------------------------------------------- *)

let test_qerror () =
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (Obs.Diagnose.qerror ~est:5.0 ~act:5.0);
  Alcotest.(check (float 1e-9)) "overestimate" 8.0
    (Obs.Diagnose.qerror ~est:80.0 ~act:10.0);
  Alcotest.(check (float 1e-9)) "underestimate symmetric" 8.0
    (Obs.Diagnose.qerror ~est:10.0 ~act:80.0);
  Alcotest.(check (float 1e-9)) "clamped below one" 4.0
    (Obs.Diagnose.qerror ~est:4.0 ~act:0.0)

let sample ?(node = 0) ?(op = "scan") ?(leaf = false) ?(est_rows = -1.0)
    ?(act_rows = -1) ?(est_cost = -1.0) ?(act_cost = -1) ?(spills = 0) stream =
  {
    Obs.Diagnose.d_stream = stream;
    d_node = node;
    d_op = op;
    d_est_rows = est_rows;
    d_act_rows = act_rows;
    d_est_cost = est_cost;
    d_act_cost = act_cost;
    d_est_ms = -1.0;
    d_act_ms = -1.0;
    d_spills = spills;
    d_leaf = leaf;
    d_shared = "";
  }

let test_findings () =
  let samples =
    [
      (* rows off by 64x, cost fine *)
      sample "S1" ~node:1 ~est_rows:640.0 ~act_rows:10 ~est_cost:100.0
        ~act_cost:100;
      (* within threshold *)
      sample "S1" ~node:2 ~est_rows:30.0 ~act_rows:10;
      (* missing actuals: skipped *)
      sample "S2" ~node:3 ~est_rows:1e6;
    ]
  in
  let fs = Obs.Diagnose.findings samples in
  Alcotest.(check int) "one finding" 1 (List.length fs);
  let f = List.hd fs in
  Alcotest.(check string) "stream" "S1" f.Obs.Diagnose.f_stream;
  Alcotest.(check int) "node" 1 f.Obs.Diagnose.f_node;
  Alcotest.(check (float 1e-9)) "qerr" 64.0 f.Obs.Diagnose.f_qerr;
  Alcotest.(check bool) "rows metric" true (f.Obs.Diagnose.f_metric = Obs.Diagnose.Rows);
  with_obs (fun () ->
      Obs.Diagnose.emit_findings fs;
      Alcotest.(check int)
        "one warn event per finding" 1
        (Obs.Event.count Obs.Event.Warn))

let test_findings_sorted () =
  let samples =
    [
      sample "S1" ~node:1 ~est_rows:50.0 ~act_rows:10;
      sample "S1" ~node:2 ~est_rows:1000.0 ~act_rows:10;
    ]
  in
  match Obs.Diagnose.findings samples with
  | [ a; b ] ->
      Alcotest.(check int) "worst first" 2 a.Obs.Diagnose.f_node;
      Alcotest.(check int) "then milder" 1 b.Obs.Diagnose.f_node
  | fs -> Alcotest.failf "expected 2 findings, got %d" (List.length fs)

(* A misestimated leaf is where the error enters the plan; the
   operators above it inherit it and can outrank it, so the report's
   table keeps every leaf finding past its top rows. *)
let test_report_keeps_leaf_findings () =
  let samples =
    [
      sample "S1" ~node:1 ~op:"hash-join" ~est_rows:1000.0 ~act_rows:10;
      sample "S1" ~node:2 ~op:"project" ~est_rows:800.0 ~act_rows:10;
      sample "S1" ~node:3 ~op:"hash-join" ~est_rows:700.0 ~act_rows:10;
      sample "S1" ~node:4 ~op:"scan" ~leaf:true ~est_rows:640.0 ~act_rows:10;
      sample "S1" ~node:5 ~op:"sort" ~est_rows:500.0 ~act_rows:10;
    ]
  in
  let r = Obs.Diagnose.render ~top:2 ~resilience:"" samples in
  let has needle =
    let n = String.length needle and m = String.length r in
    let rec at i = i + n <= m && (String.sub r i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "top finding" true (has "100.00");
  Alcotest.(check bool) "second finding" true (has "80.00");
  Alcotest.(check bool) "leaf past the top" true (has "64.00");
  Alcotest.(check bool) "third non-leaf cut" false (has "70.00");
  Alcotest.(check bool) "fifth non-leaf cut" false (has "50.00")

(* A run's estimates are priced on demand with the profile it ran
   under: explaining an execution writes nothing, so diagnosing before
   or after it gives the same samples, and a backend's small sort
   buffer shows in the sort's estimated cost in both. *)
let test_explain_keeps_run_estimates () =
  with_obs (fun () ->
      let db = tpch 0.5 in
      let p = Middleware.prepare_text db Queries.query1_text in
      let profile = { R.Executor.default_profile with sort_buffer = 256 } in
      let backend = B.create ~profile db in
      let e =
        Middleware.execute ~backend p (Partition.unified p.Middleware.tree)
      in
      let before = Middleware.diagnose_samples p e in
      let explained = Middleware.explain_execution p e in
      let after = Middleware.diagnose_samples p e in
      Alcotest.(check bool) "diagnose, explain, diagnose: same samples" true
        (before = after);
      Alcotest.(check string) "explain again: same text" explained
        (Middleware.explain_execution p e);
      let se = List.hd e.Middleware.per_stream in
      let priced profile =
        snd
          (R.Cost.annotate ~profile (Lazy.force p.Middleware.stats)
             se.Middleware.se_plan)
      in
      let ours = priced profile and default = priced R.Executor.default_profile in
      match List.filter (fun (s : Obs.Diagnose.sample) -> s.d_op = "sort") before with
      | [ sort ] ->
          Alcotest.(check (float 0.0)) "the sort is priced with the backend's profile"
            ours.cost.(sort.d_node) sort.d_est_cost;
          Alcotest.(check bool) "which the default profile prices otherwise" true
            (default.cost.(sort.d_node) <> sort.d_est_cost);
          let figure = Printf.sprintf "cost=%.0f/%d" sort.d_est_cost sort.d_act_cost in
          let n = String.length figure in
          let rec has i =
            i + n <= String.length explained
            && (String.sub explained i n = figure || has (i + 1))
          in
          Alcotest.(check bool) ("explain shows " ^ figure) true (has 0)
      | sorts -> Alcotest.failf "expected one sort, got %d" (List.length sorts))

(* Regression: the report's RESILIENCE line is the run's own record.
   It used to read the process-global counters, so the second of two
   resilient runs in one traced process reported both runs' retries and
   faults. *)
let test_report_reads_its_own_resilience () =
  with_obs (fun () ->
      let db = tpch 0.1 in
      let p = Middleware.prepare_text db Queries.query1_text in
      let plan = Partition.fully_partitioned p.Middleware.tree in
      let run seed =
        let backend =
          B.create ~faults:(B.faults ~seed 0.3) ~retries:8 db
        in
        Middleware.execute ~backend ~max_splits:8 p plan
      in
      let first = run 1 in
      let second = run 2 in
      let st = second.Middleware.resilience in
      Alcotest.(check bool) "the first run retried" true
        (first.Middleware.resilience.B.retries > 0);
      let line =
        List.find_opt
          (String.starts_with ~prefix:"RESILIENCE")
          (String.split_on_char '\n' (Middleware.diagnose_report p second))
      in
      Alcotest.(check (option string)) "the second run's record"
        (Some
           (Printf.sprintf
              "RESILIENCE — %d submits, %d attempts, %d retries, %d faults, \
               %d timeouts, %d degraded, %.1f ms backoff, %d wasted work"
              st.B.submits st.B.attempts st.B.retries (B.total_faults st)
              st.B.timeouts second.Middleware.degraded st.B.backoff_ms
              st.B.wasted_work))
        line)

(* Regression: the report's EVENTS line counts the run's events.  The
   report used to emit its own misestimate findings before rendering,
   so a skewed catalog's findings were counted as the run's warnings. *)
let test_report_counts_the_runs_events () =
  with_obs (fun () ->
      let db = tpch 0.5 in
      let p = Middleware.prepare_text db Queries.query1_text in
      R.Stats.scale_table (Lazy.force p.Middleware.stats) "Supplier" 64.0;
      let e = Middleware.execute p (Middleware.partition_of p Middleware.Greedy) in
      let warns () =
        List.length
          (List.filter
             (fun (e : Obs.Event.t) -> e.Obs.Event.level = Obs.Event.Warn)
             (Obs.Event.events ()))
      in
      let run_warns = warns () in
      let report = Middleware.diagnose_report p e in
      Alcotest.(check bool) "the skew is found" true
        (List.mem "diagnose.misestimate" (names ()));
      Alcotest.(check bool) "findings are warnings" true (warns () > run_warns);
      let line =
        List.find (String.starts_with ~prefix:"EVENTS") (String.split_on_char '\n' report)
      in
      let needle = Printf.sprintf " / %d warn / " run_warns in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length line && (String.sub line i n = needle || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%S does not count %d warn" line run_warns)

(* Regression: the OPERATOR TIME table lists the same operators in the
   same order in every report of one plan.  It used to pick and order
   its rows by measured ms, so two runs of q1 greedy listed different
   rows.  Timed by the real clock; the ms figures are masked. *)
let test_operator_time_table_reproducible () =
  let db = tpch 1.0 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let table () =
    let e = Middleware.execute p (Middleware.partition_of p Middleware.Greedy) in
    let lines = String.split_on_char '\n' (Middleware.diagnose_report p e) in
    let rec section on = function
      | [] -> []
      | l :: rest ->
          if String.starts_with ~prefix:"OPERATOR TIME" l then l :: section true rest
          else if on && l <> "" then l :: section on rest
          else if on then []
          else section on rest
    in
    (* every decimal figure is a time: mask it *)
    let mask l =
      String.split_on_char ' ' l
      |> List.map (fun w ->
             if w <> "" && String.contains w '.'
                && String.for_all (fun c -> c = '.' || (c >= '0' && c <= '9')) w
             then "#"
             else w)
      |> String.concat " "
    in
    List.map mask (section false lines)
  in
  let first = table () in
  Alcotest.(check bool) "the table has rows" true (List.length first > 2);
  Alcotest.(check (list string)) "the same rows in the same order" first (table ())

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "level filtering" `Quick test_level_filtering;
    Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
    Alcotest.test_case "dump sink" `Quick test_dump_sink;
    Alcotest.test_case "dump on plan timeout" `Quick test_dump_on_plan_timeout;
    Alcotest.test_case "plan timeout numbers its stream from 1" `Quick
      test_plan_timeout_numbers_from_one;
    Alcotest.test_case "deterministic sequence" `Quick test_deterministic_sequence;
    Alcotest.test_case "span GC deltas" `Quick test_span_gc_deltas;
    Alcotest.test_case "q-error" `Quick test_qerror;
    Alcotest.test_case "findings" `Quick test_findings;
    Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
    Alcotest.test_case "report keeps leaf findings" `Quick
      test_report_keeps_leaf_findings;
    Alcotest.test_case "explain keeps the run's estimates" `Quick
      test_explain_keeps_run_estimates;
    Alcotest.test_case "report reads its own run's resilience" `Quick
      test_report_reads_its_own_resilience;
    Alcotest.test_case "report counts the run's events" `Quick
      test_report_counts_the_runs_events;
    Alcotest.test_case "operator time table is reproducible" `Quick
      test_operator_time_table_reproducible;
  ]
