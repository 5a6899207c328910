(* The observability layer: span nesting/ordering, attribute capture,
   histogram bucketing, JSONL round-trips, and the middleware
   integration (per-stream stats, plan.edge spans, work-count
   neutrality). *)

open Silkroute
module R = Relational

(* Deterministic clock: every reading advances by 1µs, so span durations
   are exact and reproducible. *)
let install_test_clock () =
  let t = ref 0L in
  Obs.Clock.set_source (fun () ->
      t := Int64.add !t 1_000L;
      !t)

let with_obs f =
  install_test_clock ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Metrics.reset ();
      Obs.Clock.use_default ())
    (fun () -> Obs.Control.with_enabled true f)

let find_spans name =
  List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = name) (Obs.Span.spans ())

let attr_exn s key =
  match List.assoc_opt key (Obs.Span.attrs s) with
  | Some v -> v
  | None -> Alcotest.failf "span %s: missing attribute %s" s.Obs.Span.name key

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  with_obs (fun () ->
      let r =
        Obs.Span.with_span "a" (fun () ->
            Obs.Span.with_span "b" (fun () -> ignore (Obs.Span.with_span "c" (fun () -> 1)));
            Obs.Span.with_span "d" (fun () -> 2))
      in
      Alcotest.(check int) "value returned" 2 r;
      let names = List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) (Obs.Span.spans ()) in
      Alcotest.(check (list string)) "pre-order" [ "a"; "b"; "c"; "d" ] names;
      let by_name n = List.hd (find_spans n) in
      Alcotest.(check (option int)) "a is root" None (by_name "a").Obs.Span.parent;
      Alcotest.(check (option int)) "b under a" (Some (by_name "a").Obs.Span.id)
        (by_name "b").Obs.Span.parent;
      Alcotest.(check (option int)) "c under b" (Some (by_name "b").Obs.Span.id)
        (by_name "c").Obs.Span.parent;
      Alcotest.(check (option int)) "d under a" (Some (by_name "a").Obs.Span.id)
        (by_name "d").Obs.Span.parent;
      Alcotest.(check int) "c depth" 2 (by_name "c").Obs.Span.depth;
      List.iter
        (fun (s : Obs.Span.t) ->
          Alcotest.(check bool) "finished" true s.Obs.Span.finished;
          Alcotest.(check bool) "positive duration" true
            (Obs.Span.duration_ms s > 0.0))
        (Obs.Span.spans ()))

let test_span_attrs () =
  with_obs (fun () ->
      Obs.Span.with_span "op" ~attrs:[ Obs.Attr.string "table" "Part" ]
        (fun () ->
          Obs.Span.add "rows" (Obs.Attr.Int 42);
          Obs.Span.add_list [ Obs.Attr.float "sel" 0.5; Obs.Attr.bool "ok" true ]);
      let s = List.hd (find_spans "op") in
      Alcotest.(check (list string)) "insertion order"
        [ "table"; "rows"; "sel"; "ok" ]
        (List.map fst (Obs.Span.attrs s));
      (match attr_exn s "rows" with
      | Obs.Attr.Int 42 -> ()
      | _ -> Alcotest.fail "rows attribute wrong");
      match attr_exn s "table" with
      | Obs.Attr.String "Part" -> ()
      | _ -> Alcotest.fail "table attribute wrong")

let test_span_exception_safety () =
  with_obs (fun () ->
      (try
         Obs.Span.with_span "outer" (fun () ->
             Obs.Span.with_span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      let outer = List.hd (find_spans "outer") in
      let inner = List.hd (find_spans "inner") in
      Alcotest.(check bool) "outer finished" true outer.Obs.Span.finished;
      Alcotest.(check bool) "inner finished" true inner.Obs.Span.finished;
      (* a fresh root opens cleanly after the unwind *)
      Obs.Span.with_span "next" (fun () -> ());
      Alcotest.(check (option int)) "next is root" None
        (List.hd (find_spans "next")).Obs.Span.parent)

let test_disabled_is_noop () =
  install_test_clock ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Control.set_enabled false;
  let r = Obs.Span.with_span "a" (fun () -> Obs.Metrics.incr "c"; 7) in
  Alcotest.(check int) "value returned" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.spans ()));
  Alcotest.(check (option int)) "no counter" None (Obs.Metrics.counter_value "c");
  Obs.Clock.use_default ()

(* --- metrics ------------------------------------------------------------ *)

let test_counters_and_gauges () =
  with_obs (fun () ->
      Obs.Metrics.incr "hits";
      Obs.Metrics.incr ~by:4 "hits";
      Obs.Metrics.set_gauge "temp" 1.5;
      Obs.Metrics.set_gauge "temp" 2.5;
      Alcotest.(check (option int)) "counter" (Some 5)
        (Obs.Metrics.counter_value "hits");
      match Obs.Metrics.snapshot () with
      | [ ("hits", Obs.Metrics.SCounter 5); ("temp", Obs.Metrics.SGauge g) ] ->
          Alcotest.(check (float 1e-9)) "gauge keeps last" 2.5 g
      | _ -> Alcotest.fail "unexpected snapshot shape")

let test_histogram_buckets () =
  with_obs (fun () ->
      let bounds = [| 1.0; 10.0; 100.0 |] in
      (* bucket edges are inclusive upper bounds; beyond the last bound
         falls into the overflow bucket *)
      List.iter
        (fun x -> Obs.Metrics.observe ~bounds "h" x)
        [ 0.5; 1.0; 2.0; 10.0; 99.0; 100.5; 1e6 ];
      match Obs.Metrics.histogram_snapshot "h" with
      | None -> Alcotest.fail "histogram missing"
      | Some h ->
          Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 2 |]
            h.Obs.Metrics.counts;
          Alcotest.(check int) "n" 7 h.Obs.Metrics.n;
          Alcotest.(check (float 1e-6)) "sum" 1000213.0 h.Obs.Metrics.sum)

(* --- json + jsonl ------------------------------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Float 1.0;
      Obs.Json.Float 3.25e-3;
      Obs.Json.String "quote\" slash\\ newline\n tab\t unicode é";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.String "x"; Obs.Json.Null ];
      Obs.Json.Obj
        [
          ("a", Obs.Json.Int 1);
          ("nested", Obs.Json.Obj [ ("b", Obs.Json.List []) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Obs.Json.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (Obs.Json.parse s = v))
    samples;
  (* int/float distinction survives *)
  Alcotest.(check bool) "1 is Int" true (Obs.Json.parse "1" = Obs.Json.Int 1);
  Alcotest.(check bool) "1.0 is Float" true
    (Obs.Json.parse "1.0" = Obs.Json.Float 1.0);
  (* \u escapes incl. surrogate pairs *)
  Alcotest.(check bool) "u-escape" true
    (Obs.Json.parse {|"é"|} = Obs.Json.String "é");
  Alcotest.(check bool) "surrogate pair" true
    (Obs.Json.parse {|"😀"|} = Obs.Json.String "😀");
  (* malformed input fails *)
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s" bad)
        true
        (try
           ignore (Obs.Json.parse bad);
           false
         with Obs.Json.Parse_error _ -> true))
    [ "{"; "[1,"; "\"unterminated"; "1 2"; "tru"; "{\"a\" 1}" ]

let test_jsonl_export () =
  with_obs (fun () ->
      Obs.Span.with_span "root" ~attrs:[ Obs.Attr.int "n" 3 ] (fun () ->
          Obs.Span.with_span "child" (fun () -> ()));
      Obs.Metrics.incr ~by:9 "counted";
      Obs.Metrics.observe ~bounds:[| 1.0 |] "sized" 0.5;
      let lines = Obs.Jsonl.to_lines ~experiment:"exp1" () in
      (* 2 spans + 3 metrics (counted, sized, span.ms.* for both spans —
         which share one histogram per name) *)
      Alcotest.(check bool) "several lines" true (List.length lines >= 5);
      let parsed = List.map Obs.Json.parse lines in
      List.iter
        (fun j ->
          Alcotest.(check bool) "tagged with experiment" true
            (Obs.Json.member "experiment" j = Some (Obs.Json.String "exp1"));
          match Obs.Json.member "type" j with
          | Some (Obs.Json.String ("span" | "profile" | "metric")) -> ()
          | _ -> Alcotest.fail "bad type field")
        parsed;
      let root =
        List.find
          (fun j ->
            Obs.Json.member "name" j = Some (Obs.Json.String "root"))
          parsed
      in
      (match Obs.Json.member "attrs" root with
      | Some (Obs.Json.Obj [ ("n", Obs.Json.Int 3) ]) -> ()
      | _ -> Alcotest.fail "root attrs wrong");
      let counted =
        List.find
          (fun j ->
            Obs.Json.member "name" j = Some (Obs.Json.String "counted"))
          parsed
      in
      Alcotest.(check bool) "counter value" true
        (Obs.Json.member "value" counted = Some (Obs.Json.Int 9)))

(* --- pipeline integration ----------------------------------------------- *)

let setup ?(scale = 0.12) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

let test_greedy_plan_edge_spans () =
  with_obs (fun () ->
      let db, p = setup Queries.query1_text in
      let oracle = R.Cost.oracle db in
      let r =
        Planner.gen_plan db oracle p.Middleware.tree p.Middleware.labels
          Planner.default_params
      in
      let edge_spans = find_spans "plan.edge" in
      (* one span per considered edge: each evaluates exactly three
         fragment costs (combined, left, right), each a request or a
         cache hit *)
      Alcotest.(check int) "3 lookups per considered edge"
        (r.Planner.requests + r.Planner.cache_hits)
        (3 * List.length edge_spans);
      Alcotest.(check bool) "first round considers every edge" true
        (List.length edge_spans >= View_tree.edge_count p.Middleware.tree);
      List.iter
        (fun s ->
          (match attr_exn s "edge" with
          | Obs.Attr.String e ->
              Alcotest.(check bool) "edge names both endpoints" true
                (String.contains e '-')
          | _ -> Alcotest.fail "edge attr not a string");
          match attr_exn s "rel" with
          | Obs.Attr.Float _ -> ()
          | _ -> Alcotest.fail "rel attr not a float")
        edge_spans;
      Alcotest.(check (option int)) "requests counter" (Some r.Planner.requests)
        (Obs.Metrics.counter_value "planner.requests");
      Alcotest.(check (option int)) "cache_hits counter"
        (Some r.Planner.cache_hits)
        (Obs.Metrics.counter_value "planner.cache_hits");
      Alcotest.(check bool) "cache saves requests" true (r.Planner.cache_hits > 0))

let test_middleware_stage_spans () =
  with_obs (fun () ->
      let _, p = setup Queries.query1_text in
      let plan = Middleware.partition_of p Middleware.Greedy in
      let e = Middleware.execute p plan in
      ignore (Middleware.document_of p e);
      (* every pipeline stage is spanned under its own name *)
      List.iter
        (fun stage ->
          let name = Obs.Stage.name stage in
          Alcotest.(check bool) (name ^ " span present") true
            (find_spans name <> []))
        Obs.Stage.pipeline;
      List.iter
        (fun name ->
          let s = List.hd (find_spans name) in
          match attr_exn s "work" with
          | Obs.Attr.Int _ -> ()
          | _ -> Alcotest.failf "%s: work attr not an int" name)
        [
          "view_tree"; "planner"; "sql_gen"; "middleware.execute"; "executor";
          "tagger";
        ];
      (* SQL print, parse and physical planning are children of
         middleware.execute, which plans every stream before the fan-out
         (a degraded stream plans its own fragments under its
         execute.stream); execution is a child of execute.stream *)
      let under parents name =
        List.iter
          (fun (s : Obs.Span.t) ->
            Alcotest.(check bool)
              (name ^ " under " ^ String.concat " or " parents)
              true
              (List.exists
                 (fun (p : Obs.Span.t) -> Some p.Obs.Span.id = s.Obs.Span.parent)
                 (List.concat_map find_spans parents)))
          (find_spans name)
      in
      List.iter
        (under [ "middleware.execute"; "execute.stream" ])
        [ "sql_print"; "sql_parser"; "physical" ];
      under [ "execute.stream" ] "executor";
      (* each attempt drains its rows in its own span, which counts them *)
      Alcotest.(check bool) "drain spans" true (find_spans "backend.drain" <> []);
      under [ "backend.submit" ] "backend.drain";
      List.iter
        (fun s ->
          match (attr_exn s "tuples", attr_exn s "bytes") with
          | Obs.Attr.Int _, Obs.Attr.Int _ -> ()
          | _ -> Alcotest.fail "backend.drain: tuples/bytes not ints")
        (find_spans "backend.drain");
      (* executor operator spans appear under execute.stream *)
      Alcotest.(check bool) "operator spans" true
        (find_spans "exec.scan" <> [] && find_spans "exec.sort" <> []);
      (* a sort of n > 0 rows finds between 1 and n ascending runs *)
      List.iter
        (fun s ->
          match (attr_exn s "rows", attr_exn s "runs") with
          | Obs.Attr.Int rows, Obs.Attr.Int runs ->
              Alcotest.(check bool) "1 <= runs <= rows" true
                (if rows = 0 then runs = 0 else 1 <= runs && runs <= rows)
          | _ -> Alcotest.fail "exec.sort: rows/runs not ints")
        (find_spans "exec.sort"))

let test_per_stream_stats () =
  let _, p = setup Queries.query1_text in
  let plan = Middleware.partition_of p Middleware.Fully_partitioned in
  let e = Middleware.execute p plan in
  Alcotest.(check int) "one stats record per stream" 10
    (List.length e.Middleware.per_stream);
  let sum f = List.fold_left (fun acc se -> acc + f se) 0 e.Middleware.per_stream in
  Alcotest.(check int) "work is the sum of per-stream work" e.Middleware.work
    (sum (fun se -> se.Middleware.se_stats.R.Executor.work));
  Alcotest.(check int) "tuples is the sum of per-stream rows" e.Middleware.tuples
    (sum (fun se -> List.length (R.Cursor.to_list (se.Middleware.se_cursor ()))));
  (* the records really are distinct, not one shared accumulator *)
  let rec distinct = function
    | [] -> true
    | se :: rest ->
        List.for_all
          (fun se' ->
            not (se.Middleware.se_stats == se'.Middleware.se_stats))
          rest
        && distinct rest
  in
  Alcotest.(check bool) "stats records not shared" true
    (distinct e.Middleware.per_stream)

(* Every exec.* span is one plan node's: its [id] names a node of its
   stream's plan with the matching operator name, and its [rows] and
   [work] are that node's actuals.  A join span thus counts the join
   alone: its work is the join node's cost, without the charges of the
   projection built inside its probe. *)
let test_join_spans_count_the_join () =
  with_obs (fun () ->
      let _, p = setup ~scale:0.5 Queries.query1_text in
      let plan = Middleware.partition_of ~reduce:false p Middleware.Greedy in
      let e = Middleware.execute ~reduce:false p plan in
      let spans = Obs.Span.spans () in
      let by_id = Hashtbl.create 256 in
      List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.Obs.Span.id s) spans;
      (* the execute.stream span a span ran under *)
      let rec stream_of (s : Obs.Span.t) =
        if s.Obs.Span.name = "execute.stream" then s
        else
          match s.Obs.Span.parent with
          | Some id -> stream_of (Hashtbl.find by_id id)
          | None -> Alcotest.failf "%s: not under execute.stream" s.Obs.Span.name
      in
      let int_attr s key =
        match attr_exn s key with
        | Obs.Attr.Int n -> n
        | _ -> Alcotest.failf "%s: %s not an int" s.Obs.Span.name key
      in
      let exec =
        List.filter
          (fun (s : Obs.Span.t) -> String.starts_with ~prefix:"exec." s.Obs.Span.name)
          spans
      in
      let joins = ref 0 in
      List.iter
        (fun (s : Obs.Span.t) ->
          let root =
            match attr_exn (stream_of s) "root" with
            | Obs.Attr.String r -> r
            | _ -> Alcotest.fail "execute.stream: root not a string"
          in
          let se =
            List.find
              (fun (se : Middleware.stream_exec) ->
                View_tree.skolem_name
                  (View_tree.node p.Middleware.tree
                     se.se_stream.Sql_gen.fragment.Partition.root)
                    .View_tree.sfi
                = root)
              e.Middleware.per_stream
          in
          let id = int_attr s "id" in
          let node = ref None in
          R.Physical.iter
            (fun n -> if n.R.Physical.id = id then node := Some n)
            se.se_plan;
          let n =
            match !node with
            | Some n -> n
            | None -> Alcotest.failf "%s: id %d names no node of %s" s.Obs.Span.name id root
          in
          (match n.R.Physical.shape with R.Physical.Join _ -> incr joins | _ -> ());
          let a = se.se_stats.R.Executor.actuals in
          let what = Printf.sprintf "%s node %d of %s" s.Obs.Span.name id root in
          Alcotest.(check string) (what ^ ": op_name") s.Obs.Span.name
            ("exec." ^ R.Physical.op_name n);
          Alcotest.(check int) (what ^ ": rows") a.R.Physical.rows.(id) (int_attr s "rows");
          Alcotest.(check int) (what ^ ": work") a.R.Physical.cost.(id) (int_attr s "work"))
        exec;
      Alcotest.(check bool) "join spans" true (!joins > 0);
      (* and every scan, join and sort that ran did so in its span; a
         subtree replayed from another stream's run did not run *)
      let operators =
        List.fold_left
          (fun acc (se : Middleware.stream_exec) ->
            let k = ref 0 and replayed = ref 0 in
            let count n =
              match n.R.Physical.shape with
              | R.Physical.Scan _ | R.Physical.Join _ | R.Physical.Sort _ -> 1
              | _ -> 0
            in
            R.Physical.iter
              (fun n ->
                k := !k + count n;
                if
                  List.exists
                    (fun r -> r.R.Executor.r_node = n.R.Physical.id)
                    se.se_stats.R.Executor.replayed
                then R.Physical.iter_node (fun m -> replayed := !replayed + count m) n)
              se.se_plan;
            acc + !k - !replayed)
          0 e.Middleware.per_stream
      in
      Alcotest.(check int) "one span per scan, join and sort that ran"
        operators (List.length exec))

(* Tracing reads a run's actuals and prices nothing: a traced execute
   of a plan that needs no planning leaves the view's catalog unforced,
   and records no post-run plan.physical spans. *)
let test_traced_execute_leaves_catalog () =
  with_obs (fun () ->
      let _, p = setup Queries.query1_text in
      List.iter
        (fun strategy ->
          let p = Middleware.prepare p.Middleware.db p.Middleware.view in
          let plan = Middleware.partition_of p strategy in
          ignore (Middleware.execute p plan);
          Alcotest.(check bool)
            (Middleware.strategy_name strategy ^ ": catalog unforced")
            false
            (Lazy.is_val p.Middleware.stats))
        [ Middleware.Unified; Middleware.Edges 5 ];
      Alcotest.(check bool) "exec spans recorded" true (find_spans "exec.scan" <> []);
      Alcotest.(check int) "no plan.physical spans" 0
        (List.length (find_spans "plan.physical")))

let test_tracing_does_not_change_work () =
  let _, p = setup Queries.query1_text in
  let plan = Middleware.partition_of p Middleware.Unified in
  let off = (Middleware.execute p plan).Middleware.work in
  let on =
    Obs.Control.with_enabled true (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.reset ();
            Obs.Metrics.reset ())
          (fun () -> (Middleware.execute p plan).Middleware.work))
  in
  Alcotest.(check int) "work identical with tracing on" off on

(* --- the stage list and the per-request clock ----------------------------- *)

let test_stage_list_pinned () =
  Alcotest.(check (list string)) "the ten stages, in pipeline order"
    [
      "rxl_parser"; "view_tree"; "planner"; "sql_gen"; "sql_print";
      "sql_parser"; "physical"; "executor"; "tagger"; "service";
    ]
    (List.map Obs.Stage.name Obs.Stage.all);
  Alcotest.(check (list string)) "pipeline = all but service"
    (List.filter (( <> ) "service") (List.map Obs.Stage.name Obs.Stage.all))
    (List.map Obs.Stage.name Obs.Stage.pipeline)

(* The clock a request scope installs fills even when the request is
   sampled out: every pipeline boundary adds to it, no span is recorded,
   and the service slot is left to the server. *)
let run_request ~sampled pool =
  let clock = Obs.Stage.clock () in
  Obs.Span.with_request ~trace_id:"t-test" ~sampled clock (fun () ->
      let db = Tpch.Gen.generate (Tpch.Gen.config 0.05) in
      let p = Middleware.prepare_text db Queries.query1_text in
      let plan =
        Middleware.partition_of p Middleware.Greedy
      in
      ignore (Middleware.xml_string_of p (Middleware.execute ~pool p plan)));
  clock

let test_stage_clock_sampled_out () =
  with_obs (fun () ->
      let clock = run_request ~sampled:false R.Domain_pool.inline in
      List.iter
        (fun st ->
          Alcotest.(check bool) (Obs.Stage.name st ^ " timed") true
            (Obs.Stage.ns clock st > 0))
        Obs.Stage.pipeline;
      Alcotest.(check int) "service untouched" 0
        (Obs.Stage.ns clock Obs.Stage.Service);
      Alcotest.(check int) "no spans recorded" 0
        (List.length (Obs.Span.spans ())))

let test_stage_clock_crosses_pool () =
  let clock =
    R.Domain_pool.with_pool ~domains:2 (run_request ~sampled:true)
  in
  Alcotest.(check bool) "executor time from worker domains" true
    (Obs.Stage.ns clock Obs.Stage.Executor > 0)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "attribute capture" `Quick test_span_attrs;
    Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "greedy emits plan.edge spans" `Quick
      test_greedy_plan_edge_spans;
    Alcotest.test_case "middleware stage spans" `Quick test_middleware_stage_spans;
    Alcotest.test_case "per-stream stats breakdown" `Quick test_per_stream_stats;
    Alcotest.test_case "join spans count the join alone" `Quick
      test_join_spans_count_the_join;
    Alcotest.test_case "tracing neutral on work counts" `Quick
      test_tracing_does_not_change_work;
    Alcotest.test_case "traced execute leaves the catalog unforced" `Quick
      test_traced_execute_leaves_catalog;
    Alcotest.test_case "stage list pinned" `Quick test_stage_list_pinned;
    Alcotest.test_case "stage clock fills when sampled out" `Quick
      test_stage_clock_sampled_out;
    Alcotest.test_case "stage clock crosses the pool" `Quick
      test_stage_clock_crosses_pool;
  ]
