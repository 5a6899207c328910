(* The middleware pipeline (paper Fig. 7): RXL view -> view tree ->
   partition -> SQL texts -> RDBMS -> sorted tuple streams -> merge/tag ->
   XML.

   Execution goes through the production path end to end: the generated
   SQL AST is printed to text and shipped to the backend, which parses,
   plans and runs it; wall-clock time, deterministic work units and the
   modeled transfer time are all reported, mirroring the paper's Query
   time / Total time split. *)

module R = Relational

type prepared = {
  db : R.Database.t;
  view : Rxl.view;
  tree : View_tree.t;
  labels : Xmlkit.Dtd.multiplicity array;
  stats : R.Stats.t Lazy.t;
      (* forced only when estimates are needed (greedy planning,
         admission, explain, diagnose), so execution, traced or not,
         never pays the analyze pass *)
}

let prepare db view =
  Obs.Span.with_stage Obs.Stage.View_tree (fun () ->
      let tree = View_tree.of_view db view in
      let labels = Label.label_edges db tree in
      if Obs.Span.tracing () then
        Obs.Span.add_list
          [
            Obs.Attr.int "nodes" (View_tree.node_count tree);
            Obs.Attr.int "edges" (View_tree.edge_count tree);
            Obs.Attr.int "work" (View_tree.node_count tree);
          ];
      (* the catalog analysis runs where it is first forced (greedy's
         oracle, under [planner]), in a span of its own *)
      let stats =
        lazy (Obs.Span.with_span "stats.analyze" (fun () -> R.Stats.analyze db))
      in
      { db; view; tree; labels; stats })

let prepare_text db text =
  prepare db
    (Obs.Span.with_stage Obs.Stage.Rxl_parser (fun () -> Rxl_parser.parse text))

(* A variable sits at a column position of an atom; NULL in any such
   column is where the plans part ways (a folded [where] equality is
   NULL-safe in one stream and SQL's [=] in another). *)
let null_free p =
  Array.for_all
    (fun (n : View_tree.node) ->
      List.for_all
        (fun (a : Datalog.Rule.atom) ->
          let schema = R.Database.schema p.db a.Datalog.Rule.rel in
          List.for_all2
            (fun (c : R.Schema.column) -> function
              | Datalog.Rule.Var _ -> not c.R.Schema.nullable
              | Datalog.Rule.Const _ | Datalog.Rule.Wild -> true)
            schema.R.Schema.columns a.Datalog.Rule.args)
        n.View_tree.rule.Datalog.Rule.atoms)
    p.tree.View_tree.nodes

type strategy =
  | Unified
  | Fully_partitioned
  | Edges of int (* partition mask over view-tree edges *)
  | Greedy

let strategy_name = function
  | Unified -> "unified"
  | Fully_partitioned -> "fully-partitioned"
  | Edges mask -> Printf.sprintf "edges:%d" mask
  | Greedy -> "greedy"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "unified" -> Unified
  | "partitioned" | "fully-partitioned" -> Fully_partitioned
  | "greedy" -> Greedy
  | s when String.starts_with ~prefix:"edges:" s -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some mask when mask >= 0 -> Edges mask
      | _ -> invalid_arg ("bad edge mask in strategy: " ^ s))
  | s -> invalid_arg ("unknown strategy: " ^ s)

let options_of p ~style ~reduce =
  { Sql_gen.style; labels = (if reduce then Some p.labels else None) }

(* The one place a prepared view's catalog becomes a cost oracle: a
   fresh counting oracle over [p.stats] per run, so the request count is
   this run's and a skewed catalog skews the plan. *)
let gen_plan p ~reduce =
  Planner.gen_plan ~reduce p.db
    (R.Cost.oracle_with_stats p.db (Lazy.force p.stats))
    p.tree p.labels Planner.default_params

let partition_of ?(reduce = false) p strategy =
  Obs.Span.with_stage Obs.Stage.Planner (fun () ->
      let requests = ref 0 in
      let plan =
        match strategy with
        | Unified -> Partition.unified p.tree
        | Fully_partitioned -> Partition.fully_partitioned p.tree
        | Edges mask -> Partition.of_mask p.tree mask
        | Greedy ->
            let result = gen_plan p ~reduce in
            requests := result.Planner.requests;
            Planner.best_plan p.tree result
      in
      if Obs.Span.tracing () then
        Obs.Span.add_list
          [
            Obs.Attr.string "strategy" (strategy_name strategy);
            Obs.Attr.bool "reduce" reduce;
            Obs.Attr.int "streams" (Partition.stream_count plan);
            Obs.Attr.int "work" !requests;
          ];
      plan)

(* Per-stream breakdown: every sub-query of a partition gets its own
   stats record, so the execution result can show where inside a plan the
   work went (the aggregate fields below are sums over this list).  Rows,
   bytes and modeled transfer are the backend's counts of the winning
   attempt; the rows themselves are reached through [se_cursor]. *)
type stream_exec = {
  se_stream : Sql_gen.stream;
  se_origin : int;
      (* the plan-order index of the top-level stream it ran for: its
         own, or the one a degraded stream was split from *)
  se_cursor : unit -> R.Cursor.t;
      (* heap: a fresh cursor per call; spooled: the one spool cursor *)
  se_sql : string;
  se_plan : R.Physical.plan; (* the plan that ran *)
  se_stats : R.Executor.stats; (* with the run's per-node actuals *)
  se_profile : R.Executor.profile; (* the cost profile it ran under *)
  se_wall_ms : float;
  se_rows : int;
  se_bytes : int;
  se_transfer_ms : float;
}

(* Result of running one plan. *)
type execution = {
  per_stream : stream_exec list; (* one entry per sub-query, in plan order *)
  query_wall_ms : float; (* measured engine time *)
  transfer_ms : float; (* modeled client transfer time *)
  work : int; (* deterministic engine work units *)
  tuples : int;
  bytes : int;
  resilience : R.Backend.stats; (* summed over the per-stream forks *)
  degraded : int; (* streams split into finer fragments *)
}

let resilience_summary e =
  let r = e.resilience in
  Printf.sprintf
    "%d submits, %d attempts, %d retries, %d faults, %d timeouts, %d \
     degraded, %.1f ms backoff, %d wasted work"
    r.R.Backend.submits r.R.Backend.attempts r.R.Backend.retries
    (R.Backend.total_faults r) r.R.Backend.timeouts e.degraded
    r.R.Backend.backoff_ms r.R.Backend.wasted_work

(* Which sub-query blew the budget, and where it sat in the plan:
   without this, a timeout in a multi-stream plan loses the partial
   per-stream picture and the trace cannot say which fragment was at
   fault. *)
type timeout_info = {
  timeout_sql : string; (* the offending SQL text *)
  timeout_stream : int; (* the stream's number in plan order, from 1 *)
  timeout_root : string; (* fragment root's Skolem-function name *)
  timeout_elapsed_ms : float; (* wall time spent before the budget hit *)
}

exception Plan_timeout of timeout_info
(* A sub-query exceeded the execution budget (the paper's 5-minute
   per-query timeout). *)

let () =
  Printexc.register_printer (function
    | Plan_timeout t ->
        Some
          (Printf.sprintf
             "Plan_timeout(stream %d, root %s, after %.1f ms): the sub-query \
              exceeded the work budget"
             t.timeout_stream t.timeout_root t.timeout_elapsed_ms)
    | _ -> None)

(* Durations (stream wall time, time to a timeout) read the monotonic
   clock, which NTP cannot step backwards. *)
let now_ms () = Obs.Clock.ns_to_ms (Obs.Clock.now_ns ())

let root_name_of p (s : Sql_gen.stream) =
  View_tree.skolem_name
    (View_tree.node p.tree s.Sql_gen.fragment.Partition.root).View_tree.sfi

(* Releasing the rows of streams that completed before a later stream
   failed: without this, a Plan_timeout mid-plan left every earlier
   stream's spool file on disk until process exit. *)
let close_streams (ses : stream_exec list) =
  List.iter (fun se -> R.Cursor.close (se.se_cursor ())) ses

(* A plan's estimates, priced on demand with the profile it runs under
   against the view's catalog. *)
let estimates p profile plan =
  snd (R.Cost.annotate ~profile (Lazy.force p.stats) plan)

(* --- fan-out ---------------------------------------------------------- *)

(* Run [f i x] over the indexed [xs] as one task per element on [pool]
   (an inline pool runs each task as it is submitted).  Every handle is
   awaited in list (plan) order, so no worker can still be running a
   task whose resources nobody owns; the merge-tagger tie-breaks by plan
   order, so execution order cannot affect the XML.  On failure the
   completed results go to [on_partial] (the hook that closes spooled
   cursors) and the earliest failure in plan order is re-raised. *)
let map_streams pool ~on_partial f xs =
  let handles =
    List.mapi (fun i x -> R.Domain_pool.submit pool (fun () -> f i x)) xs
  in
  let results =
    List.map
      (fun h ->
        match R.Domain_pool.await h with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      handles
  in
  let completed = List.filter_map Result.to_option results in
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | None -> completed
  | Some (e, bt) ->
      on_partial completed;
      Printexc.raise_with_backtrace e bt

(* --- planning -------------------------------------------------------- *)

(* One stream's SQL text and the plan the backend built from it. *)
type planned_stream = {
  ps_stream : Sql_gen.stream;
  ps_sql : string;
  ps_plan : R.Physical.plan;
}

(* A plan is a function of the database and the partition alone: the
   connection it runs on is [run]'s argument. *)
type planned = {
  pl_prepared : prepared;
  pl_opts : Sql_gen.options;
  pl_streams : planned_stream list; (* in plan order *)
}

let print_and_plan db (s : Sql_gen.stream) =
  let sql =
    Obs.Span.with_stage Obs.Stage.Sql_print (fun () ->
        R.Sql_print.to_string s.Sql_gen.query)
  in
  { ps_stream = s; ps_sql = sql; ps_plan = R.Backend.plan db sql }

(* Generate, print and plan every stream once, before anything runs: the
   admission estimate and explain price these plans, and [run] runs
   them, so the repeated join subtrees can be counted before the
   fan-out (R.Share). *)
let plan_streams ?(style = Sql_gen.Outer_join) ?(reduce = false)
    (p : prepared) (plan : Partition.t) : planned =
  Obs.Span.with_span "middleware.plan" (fun () ->
      let opts = options_of p ~style ~reduce in
      let streams =
        Obs.Span.with_stage Obs.Stage.Sql_gen (fun () ->
            let streams = Sql_gen.streams p.db p.tree plan opts in
            if Obs.Span.tracing () then
              Obs.Span.add_list
                [
                  Obs.Attr.int "streams" (List.length streams);
                  Obs.Attr.int "work" (List.length streams);
                ];
            streams)
      in
      if Obs.Span.tracing () then
        Obs.Span.add "streams" (Obs.Attr.Int (List.length streams));
      {
        pl_prepared = p;
        pl_opts = opts;
        pl_streams = List.map (print_and_plan p.db) streams;
      })

let estimated_cost pl =
  Obs.Span.with_stage Obs.Stage.Planner (fun () ->
      let stats = Lazy.force pl.pl_prepared.stats in
      List.fold_left
        (fun acc ps ->
          acc +. (fst (R.Cost.annotate stats ps.ps_plan)).R.Cost.eval_cost)
        0.0 pl.pl_streams)

(* --- execution ----------------------------------------------------------- *)

let run ?backend ?(max_splits = 0) ?(spool = false)
    ?(pool = R.Domain_pool.inline) (pl : planned) : execution =
 Obs.Span.with_span "middleware.execute" (fun () ->
  let p = pl.pl_prepared and opts = pl.pl_opts in
  let backend =
    match backend with Some b -> b | None -> R.Backend.create p.db
  in
  let domains = R.Domain_pool.size pool in
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [ Obs.Attr.int "domains" domains; Obs.Attr.bool "spooled" spool ];
  (* One forked connection per top-level stream, in every mode: fault
     draws depend only on (seed, stream index, the stream's own
     submission sequence), never on how streams interleave across
     domains, so the resilience counters are identical at any domain
     count and across repeated runs.  [backend] itself is only the
     config/seed template; its own counters never move here. *)
  let backends =
    List.mapi (fun i (_ : planned_stream) -> R.Backend.fork backend ~salt:i)
      pl.pl_streams
  in
  (* The store lives for this run only: each repeated join subtree of
     the plans runs once, and its other occurrences replay its output
     and its charges. *)
  let share = R.Share.create (List.map (fun ps -> ps.ps_plan) pl.pl_streams) in
  let degraded = Atomic.make 0 in
  (* Run one stream: ship its plan to the backend, which runs it through
     its retry loop.  If its failure is persistent — retries exhausted,
     a fatal fault, or a work-budget timeout — and fewer than
     [max_splits] splits lie above it, split the offending fragment
     along its view-tree edges (one step down the 2^|E| plan lattice,
     the paper's own fallback space) and recurse on the finer
     sub-queries, planned there and sharing nothing.
     Otherwise a timeout escapes as [Plan_timeout] with the payload
     naming the fragment root, and anything else re-raises the backend
     error. *)
  let rec run_stream ~depth ?scope backend i
      { ps_stream = s; ps_sql = text; ps_plan = plan } : stream_exec list =
    Obs.Span.with_span "execute.stream" (fun () ->
        let root_name = root_name_of p s in
        let t0 = now_ms () in
        match
          R.Backend.execute_plan backend ~label:root_name ~spool ?share:scope
            plan
        with
        | { R.Backend.plan; rows = cursor; stats; tuples; bytes; transfer_ms } ->
            let wall_ms = now_ms () -. t0 in
            let profile = R.Backend.profile backend in
            if Obs.Span.tracing () then
              Obs.Span.add_list
                [
                  Obs.Attr.int "index" i;
                  Obs.Attr.string "root" root_name;
                  Obs.Attr.int "rows" tuples;
                  Obs.Attr.int "bytes" bytes;
                  Obs.Attr.int "work" stats.R.Executor.work;
                  Obs.Attr.int "depth" depth;
                ];
            [
              {
                se_stream = s;
                se_origin = i;
                se_cursor = cursor;
                se_sql = text;
                se_plan = plan;
                se_stats = stats;
                se_profile = profile;
                se_wall_ms = wall_ms;
                se_rows = tuples;
                se_bytes = bytes;
                se_transfer_ms = transfer_ms;
              };
            ]
        | exception (R.Backend.Backend_error { kind; _ } as exn) -> (
            let elapsed = now_ms () -. t0 in
            let finer =
              if depth < max_splits then Partition.split s.Sql_gen.fragment
              else None
            in
            match (finer, kind) with
            | Some frags, _ ->
                Atomic.incr degraded;
                if Obs.Span.tracing () then begin
                  Obs.Span.add_list
                    [
                      Obs.Attr.bool "degraded" true;
                      Obs.Attr.string "degraded.root" root_name;
                      Obs.Attr.string "degraded.kind" (R.Backend.kind_name kind);
                      Obs.Attr.int "degraded.fragments" (List.length frags);
                    ];
                  Obs.Event.warn "middleware.degraded"
                    ~attrs:
                      [
                        Obs.Attr.string "root" root_name;
                        Obs.Attr.string "kind" (R.Backend.kind_name kind);
                        Obs.Attr.int "fragments" (List.length frags);
                      ]
                end;
                (* a later fragment failing must not strand the spooled
                   cursors of the fragments already run *)
                let sub = ref [] in
                (try
                   List.iter
                     (fun frag ->
                       let s =
                         Obs.Span.with_stage Obs.Stage.Sql_gen (fun () ->
                             Sql_gen.stream_of_fragment p.db p.tree opts frag)
                       in
                       sub :=
                         run_stream ~depth:(depth + 1) backend i
                           (print_and_plan p.db s)
                         :: !sub)
                     frags
                 with e ->
                   let bt = Printexc.get_raw_backtrace () in
                   List.iter close_streams !sub;
                   Printexc.raise_with_backtrace e bt);
                List.concat (List.rev !sub)
            | None, R.Backend.Timeout ->
                (* streams are numbered from 1, as explain prints them *)
                let number = i + 1 in
                if Obs.Span.tracing () then begin
                  Obs.Span.add_list
                    [
                      Obs.Attr.bool "timeout" true;
                      Obs.Attr.int "timeout.stream" number;
                      Obs.Attr.string "timeout.root" root_name;
                      Obs.Attr.float "timeout.elapsed_ms" elapsed;
                    ];
                  Obs.Event.error "middleware.plan_timeout"
                    ~attrs:
                      [
                        Obs.Attr.int "stream" number;
                        Obs.Attr.string "root" root_name;
                        Obs.Attr.float "elapsed_ms" elapsed;
                      ];
                  Obs.Event.dump ~reason:"plan-timeout"
                end;
                raise
                  (Plan_timeout
                     {
                       timeout_sql = text;
                       timeout_stream = number;
                       timeout_root = root_name;
                       timeout_elapsed_ms = elapsed;
                     })
            | None, _ -> raise exn))
  in
  let per_stream =
    List.concat
      (map_streams pool ~on_partial:(List.iter close_streams)
         (fun i (b, ps) ->
           run_stream ~depth:0 ~scope:(R.Share.scope share i) b i ps)
         (List.combine backends pl.pl_streams))
  in
  (* Degradation replaces one stream by finer streams covering the same
     nodes: the effective plan is still a point in the 2^|E| lattice, so
     sorting by fragment root restores plan order and the merge/tagger
     produces byte-identical XML. *)
  let per_stream =
    List.sort
      (fun a b ->
        Int.compare a.se_stream.Sql_gen.fragment.Partition.root
          b.se_stream.Sql_gen.fragment.Partition.root)
      per_stream
  in
  let sum f = List.fold_left (fun acc se -> acc + f se) 0 per_stream in
  let sum_float f = List.fold_left (fun acc se -> acc +. f se) 0.0 per_stream in
  let work = sum (fun se -> se.se_stats.R.Executor.work) in
  let tuples = sum (fun se -> se.se_rows) in
  let bytes = sum (fun se -> se.se_bytes) in
  let resilience = R.Backend.merge_stats (List.map R.Backend.stats backends) in
  let degraded = Atomic.get degraded in
  if Obs.Span.tracing () then begin
    let replayed =
      List.concat_map (fun se -> se.se_stats.R.Executor.replayed) per_stream
    in
    Obs.Span.add_list
      [
        Obs.Attr.int "streams" (List.length per_stream);
        Obs.Attr.int "tuples" tuples;
        Obs.Attr.int "bytes" bytes;
        Obs.Attr.int "work" work;
        Obs.Attr.int "degraded" degraded;
        Obs.Attr.int "retries" resilience.R.Backend.retries;
        Obs.Attr.int "faults" (R.Backend.total_faults resilience);
        Obs.Attr.int "shared.subtrees" (R.Share.subtrees share);
        Obs.Attr.int "shared" (List.length replayed);
        Obs.Attr.int "shared.work"
          (List.fold_left (fun acc r -> acc + r.R.Executor.r_work) 0 replayed);
      ]
  end;
  {
    per_stream;
    query_wall_ms = sum_float (fun se -> se.se_wall_ms);
    transfer_ms = sum_float (fun se -> se.se_transfer_ms);
    work;
    tuples;
    bytes;
    resilience;
    degraded;
  })

let execute ?style ?reduce ?backend ?max_splits ?spool ?pool p plan =
  run ?backend ?max_splits ?spool ?pool (plan_streams ?style ?reduce p plan)

(* --- tagging -------------------------------------------------------------- *)

let cursors (e : execution) =
  List.map (fun se -> (se.se_stream, se.se_cursor ())) e.per_stream

let tag f = Obs.Span.with_stage Obs.Stage.Tagger f

let document_of p e : Xmlkit.Xml.t =
  tag (fun () -> Tagger.to_document_cursors p.tree (cursors e))

let xml_string_of p e : string =
  tag (fun () -> Tagger.to_string_cursors p.tree (cursors e))

let stream_to_channel p e oc : unit =
  tag (fun () -> Tagger.to_channel p.tree (cursors e) oc)

(* --- explain ----------------------------------------------------------- *)

(* Pretty-print one stream's three representations: the SQL text the
   middleware ships, the rewritten logical algebra its plan was built
   from (rebuilt here from that text: a plan does not keep it), and the
   physical plan with its estimates and [actuals] (unknown when nothing
   ran). *)
let explain_stream ?shared p i root_name ~sql ~profile (plan : R.Physical.plan)
    actuals =
  let logical =
    R.Algebra.rewrite (R.Algebra.lower p.db (R.Sql_parser.parse sql))
  in
  Printf.sprintf
    "-- stream %d (root %s):\n%s\n\nlogical plan:\n%s\nphysical plan:\n%s" i
    root_name sql
    (R.Algebra.to_string logical)
    (R.Physical.to_string ?shared plan (estimates p profile plan) actuals)

(* For a node of [se]'s plan that roots a replayed subtree, [name k o]
   of the stream whose run it replayed: [o], number [k] (from 1) of
   [e.per_stream] — the first stream that ran for the top-level stream
   which computed it. *)
let replayed_from e (se : stream_exec) name id =
  List.find_opt
    (fun r -> r.R.Executor.r_node = id)
    se.se_stats.R.Executor.replayed
  |> Option.map (fun r ->
         let rec find k = function
           | o :: _ when o.se_origin = r.R.Executor.r_owner -> name k o
           | _ :: rest -> find (k + 1) rest
           | [] -> "?"
         in
         find 1 e.per_stream)

(* The plans are [plan_streams]'s, so the explained tree is the tree
   [run] runs. *)
let explain ?style ?reduce (p : prepared) (plan : Partition.t) : string =
  let pl = plan_streams ?style ?reduce p plan in
  String.concat "\n\n"
    (List.mapi
       (fun i ps ->
         explain_stream p (i + 1) (root_name_of p ps.ps_stream)
           ~sql:(R.Sql_print.to_pretty_string ps.ps_stream.Sql_gen.query)
           ~profile:R.Executor.default_profile ps.ps_plan
           (R.Physical.no_actuals ps.ps_plan))
       pl.pl_streams)

let explain_execution (p : prepared) (e : execution) : string =
  String.concat "\n\n"
    (List.mapi
       (fun i (se : stream_exec) ->
         explain_stream p (i + 1)
           ~shared:(replayed_from e se (fun k _ -> Printf.sprintf "stream %d" k))
           (root_name_of p se.se_stream)
           ~sql:se.se_sql ~profile:se.se_profile se.se_plan
           se.se_stats.R.Executor.actuals)
       e.per_stream)

(* --- plan diagnostics --------------------------------------------------- *)

(* Flatten every stream's physical plan and figures into the generic
   per-operator records the anomaly detector consumes, labelled by
   fragment root. *)
let diagnose_samples (p : prepared) (e : execution) : Obs.Diagnose.sample list =
  List.concat_map
    (fun (se : stream_exec) ->
      R.Physical.diagnose_samples
        ~shared:(replayed_from e se (fun _ o -> root_name_of p o.se_stream))
        ~stream:(root_name_of p se.se_stream)
        se.se_plan
        (estimates p se.se_profile se.se_plan)
        se.se_stats.R.Executor.actuals)
    e.per_stream

let diagnose_report p e =
  Obs.Diagnose.report ~resilience:(resilience_summary e) (diagnose_samples p e)

(* Ground truth: materialize via naive datalog evaluation of every node
   rule, bypassing SQL generation entirely.  Used by tests to validate
   every plan against an independent implementation. *)
let materialize_naive (p : prepared) : Xmlkit.Xml.t =
  let plan = Partition.fully_partitioned p.tree in
  let opts = options_of p ~style:Sql_gen.Outer_union ~reduce:false in
  let streams = Sql_gen.streams p.db p.tree plan opts in
  let rels =
    List.map
      (fun (s : Sql_gen.stream) ->
        (* evaluate the node's rule naively, then project and sort into
           the stream layout *)
        let frag = s.Sql_gen.fragment in
        let id = frag.Partition.root in
        let node = View_tree.node p.tree id in
        let inst = View_tree.instances p.db p.tree id in
        let cols = s.Sql_gen.cols in
        let tuples =
          List.map
            (fun row ->
              Array.map
                (fun c ->
                  match c with
                  | Sql_gen.Level_col j ->
                      if j <= View_tree.level node then
                        R.Value.Int (Sql_gen.sfi_component node.View_tree.sfi j)
                      else R.Value.Null
                  | Sql_gen.Var_col v -> (
                      match R.Relation.column_index inst v with
                      | Some i -> row.(i)
                      | None -> R.Value.Null))
                cols)
            (R.Relation.rows inst)
        in
        let rel =
          R.Relation.create (Array.map (fun c ->
              match c with
              | Sql_gen.Level_col j -> Printf.sprintf "L%d" j
              | Sql_gen.Var_col v -> v) cols)
            tuples
        in
        let positions = Array.init (Array.length cols) (fun i -> i) in
        (s, R.Relation.sort_by positions rel))
      streams
  in
  Tagger.to_document p.tree rels
