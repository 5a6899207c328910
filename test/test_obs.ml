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
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
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
  Obs.Control.set_enabled false;
  Obs.Event.reset ();
  let r = Obs.Span.with_span "a" (fun () -> Obs.Event.info "e"; 7) in
  Alcotest.(check int) "value returned" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.spans ()));
  Alcotest.(check int) "no event counted" 0 (Obs.Event.count Obs.Event.Info);
  Obs.Clock.use_default ()

(* --- histograms ------------------------------------------------------- *)

let test_histogram_buckets () =
  let h = Obs.Histogram.create [| 1.0; 10.0; 100.0 |] in
  (* bucket edges are inclusive upper bounds; beyond the last bound
     falls into the overflow bucket *)
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 2.0; 10.0; 99.0; 100.5; 1e6 ];
  Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 2 |] h.Obs.Histogram.counts;
  Alcotest.(check int) "n" 7 h.Obs.Histogram.n;
  Alcotest.(check (float 1e-6)) "sum" 1000213.0 h.Obs.Histogram.sum;
  let both = Obs.Histogram.create h.Obs.Histogram.bounds in
  Obs.Histogram.add ~into:both h;
  Obs.Histogram.add ~into:both h;
  Alcotest.(check (array int)) "add sums counts" [| 4; 4; 2; 4 |]
    both.Obs.Histogram.counts;
  Alcotest.(check int) "add leaves its source" 7 h.Obs.Histogram.n;
  Obs.Histogram.clear both;
  Alcotest.(check (array int)) "clear empties" [| 0; 0; 0; 0 |]
    both.Obs.Histogram.counts;
  Alcotest.(check int) "clear zeroes n" 0 both.Obs.Histogram.n

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
      Obs.Event.reset ();
      Obs.Event.info "counted" ~attrs:[ Obs.Attr.int "value" 9 ];
      let lines = Obs.Jsonl.to_lines ~experiment:"exp1" () in
      (* 2 spans, 1 event, 2 profile nodes *)
      Alcotest.(check int) "one line per record" 5 (List.length lines);
      let parsed = List.map Obs.Json.parse lines in
      List.iter
        (fun j ->
          Alcotest.(check bool) "tagged with experiment" true
            (Obs.Json.member "experiment" j = Some (Obs.Json.String "exp1"));
          match Obs.Json.member "type" j with
          | Some (Obs.Json.String ("span" | "event" | "profile")) -> ()
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
      Alcotest.(check bool) "event attrs" true
        (Obs.Json.member "attrs" counted
        = Some (Obs.Json.Obj [ ("value", Obs.Json.Int 9) ]));
      Obs.Event.reset ())

(* --- pipeline integration ----------------------------------------------- *)

let setup ?(scale = 0.12) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

let test_greedy_plan_edge_spans () =
  with_obs (fun () ->
      let db, p = setup Queries.query1_text in
      let oracle = R.Cost.oracle_with_stats db (R.Stats.analyze db) in
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
      (* SQL generation, print, parse and physical planning are children
         of middleware.plan, which plans every stream before
         middleware.execute runs them (a degraded stream plans its own
         fragments under its execute.stream); execution is a child of
         execute.stream *)
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
        (under [ "middleware.plan"; "execute.stream" ])
        [ "sql_gen"; "sql_print"; "sql_parser"; "physical" ];
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

let int_attr s key =
  match attr_exn s key with
  | Obs.Attr.Int n -> n
  | _ -> Alcotest.failf "%s: %s not an int" s.Obs.Span.name key

(* Every plan node that ran did so in exactly one exec.* span: the
   span's [id] names the node, its name is the node's operator's, its
   [rows] and [work] are the node's actuals, and it lasted at least the
   node's own ns.  A subtree replayed from another stream's run did not
   run, and a projection over a join is built inside the join's span. *)
let check_node_spans what (plan : R.Physical.plan) (st : R.Executor.stats) spans =
  let a = st.R.Executor.actuals in
  let skip = Hashtbl.create 16 and ran = ref [] in
  R.Physical.iter
    (fun n ->
      let id = n.R.Physical.id in
      if List.exists (fun r -> r.R.Executor.r_node = id) st.R.Executor.replayed then
        R.Physical.iter_node (fun m -> Hashtbl.replace skip m.R.Physical.id ()) n;
      (match n.R.Physical.shape with
      | R.Physical.Project { input = { R.Physical.shape = R.Physical.Join _; _ }; _ } ->
          Hashtbl.replace skip id ()
      | _ -> ());
      if not (Hashtbl.mem skip id) then ran := n :: !ran)
    plan;
  Alcotest.(check (list int))
    (what ^ ": one span per node that ran")
    (List.sort compare (List.map (fun n -> n.R.Physical.id) !ran))
    (List.sort compare (List.map (fun s -> int_attr s "id") spans));
  List.iter
    (fun (s : Obs.Span.t) ->
      let id = int_attr s "id" in
      let n = List.find (fun n -> n.R.Physical.id = id) !ran in
      let what = Printf.sprintf "%s: %s node %d" what s.Obs.Span.name id in
      Alcotest.(check string) (what ^ ": op_name") s.Obs.Span.name
        ("exec." ^ R.Physical.op_name n);
      Alcotest.(check int) (what ^ ": rows") a.R.Physical.rows.(id) (int_attr s "rows");
      Alcotest.(check int) (what ^ ": work") a.R.Physical.cost.(id) (int_attr s "work");
      let span_ns = Int64.to_int (Int64.sub s.Obs.Span.end_ns s.Obs.Span.start_ns) in
      if span_ns < a.R.Physical.ns.(id) then
        Alcotest.failf "%s: span lasted %d ns, under the node's own %d ns" what span_ns
          a.R.Physical.ns.(id))
    spans

let exec_spans () =
  List.filter
    (fun (s : Obs.Span.t) -> String.starts_with ~prefix:"exec." s.Obs.Span.name)
    (Obs.Span.spans ())

let test_one_span_per_node () =
  with_obs (fun () ->
      let db, p = setup ~scale:0.5 Queries.query1_text in
      (* every stream of a middleware run, shared subtrees included *)
      List.iter
        (fun (reduce, strategy) ->
          Obs.Span.reset ();
          let plan = Middleware.partition_of ~reduce p strategy in
          let e = Middleware.execute ~reduce p plan in
          let spans = Obs.Span.spans () in
          let by_id = Hashtbl.create 256 in
          List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.Obs.Span.id s) spans;
          (* the root of the execute.stream span a span ran under *)
          let rec root_of (s : Obs.Span.t) =
            if s.Obs.Span.name = "execute.stream" then
              match attr_exn s "root" with
              | Obs.Attr.String r -> r
              | _ -> Alcotest.fail "execute.stream: root not a string"
            else
              match s.Obs.Span.parent with
              | Some id -> root_of (Hashtbl.find by_id id)
              | None -> Alcotest.failf "%s: not under execute.stream" s.Obs.Span.name
          in
          let exec = exec_spans () in
          let checked = ref 0 in
          List.iter
            (fun (se : Middleware.stream_exec) ->
              let root =
                View_tree.skolem_name
                  (View_tree.node p.Middleware.tree
                     se.se_stream.Sql_gen.fragment.Partition.root)
                    .View_tree.sfi
              in
              let mine = List.filter (fun s -> root_of s = root) exec in
              checked := !checked + List.length mine;
              check_node_spans
                (Printf.sprintf "%s%s %s" (Middleware.strategy_name strategy)
                   (if reduce then "" else " unreduced")
                   root)
                se.se_plan se.se_stats mine)
            e.Middleware.per_stream;
          Alcotest.(check int) "every exec span is a stream's" (List.length exec) !checked)
        [ (false, Middleware.Greedy); (true, Middleware.Unified) ];
      (* filter and dual, which no view plan holds, run alone *)
      List.iter
        (fun sql ->
          Obs.Span.reset ();
          let plan = R.Physical.plan_of db (R.Sql_parser.parse sql) in
          let _, st = R.Executor.run_plan_with_stats db plan in
          check_node_spans sql plan st (exec_spans ()))
        [
          "SELECT s.name AS n FROM Supplier AS s WHERE s.suppkey < 5 ORDER BY n";
          "SELECT 1 AS one";
        ])

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

(* Greedy's oracle forces the catalog analysis inside the planner stage,
   in a span of its own; the unified plan never prices, so never runs it. *)
let test_catalog_analysis_span () =
  with_obs (fun () ->
      let db, p = setup Queries.query1_text in
      ignore (Middleware.partition_of p Middleware.Greedy);
      let planners = find_spans "planner" in
      (match find_spans "stats.analyze" with
      | [ s ] ->
          Alcotest.(check bool) "stats.analyze under planner" true
            (List.exists
               (fun (pl : Obs.Span.t) -> Some pl.Obs.Span.id = s.Obs.Span.parent)
               planners)
      | l -> Alcotest.failf "greedy: %d stats.analyze spans, expected 1" (List.length l));
      Obs.Span.reset ();
      let p = Middleware.prepare_text db Queries.query1_text in
      ignore (Middleware.execute p (Middleware.partition_of p Middleware.Unified));
      Alcotest.(check int) "unified: no stats.analyze span" 0
        (List.length (find_spans "stats.analyze")))

let test_tracing_does_not_change_work () =
  let _, p = setup Queries.query1_text in
  let plan = Middleware.partition_of p Middleware.Unified in
  let off = (Middleware.execute p plan).Middleware.work in
  let on =
    Obs.Control.with_enabled true (fun () ->
        Fun.protect
          ~finally:Obs.Span.reset
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
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "greedy emits plan.edge spans" `Quick
      test_greedy_plan_edge_spans;
    Alcotest.test_case "middleware stage spans" `Quick test_middleware_stage_spans;
    Alcotest.test_case "per-stream stats breakdown" `Quick test_per_stream_stats;
    Alcotest.test_case "one exec.* span per node that ran" `Quick
      test_one_span_per_node;
    Alcotest.test_case "tracing neutral on work counts" `Quick
      test_tracing_does_not_change_work;
    Alcotest.test_case "traced execute leaves the catalog unforced" `Quick
      test_traced_execute_leaves_catalog;
    Alcotest.test_case "catalog analysis spanned under planner" `Quick
      test_catalog_analysis_span;
    Alcotest.test_case "stage list pinned" `Quick test_stage_list_pinned;
    Alcotest.test_case "stage clock fills when sampled out" `Quick
      test_stage_clock_sampled_out;
    Alcotest.test_case "stage clock crosses the pool" `Quick
      test_stage_clock_crosses_pool;
  ]
