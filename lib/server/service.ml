(* The query service: three cache tiers in front of execution, admission
   control in front of the worker pool.

   Per query the path is

     statement tier -> plan tier (a miss plans the streams and prices
       them) -> result tier -> admission -> pool

   and every step is observable: the [server.request] span carries which
   tiers hit, the admission outcome and the engine work spent; admission
   queueing/rejection and cache evictions emit events.

   Telemetry: every query runs in one request scope (Span.with_request)
   carrying a trace id (a per-service atomic sequence), a head-sampling
   decision ([trace_sample]) and a fresh stage clock.  All spans and
   events the request produces — including those from pool worker
   domains, which inherit the scope through Span.context — carry the
   trace id, and every stage boundary adds to the clock.  Sampling gates
   spans only; events, the stage clock, the latency account, the SLO
   account and the slow-query log are NOT sampled.  Every request's
   wall time and its clock's stages feed the service's latency
   histograms, telemetry on or off, which the [M] scrape exposes.
   Requests slower than [slow_ms] append a structured JSONL record, with
   one entry per stage, through the bounded non-blocking Slowlog.

   Two epochs key the tiers.  A plan and its estimate depend on the view
   and the catalog alone (genPlan reads only the view and the cost and
   cardinality estimates), so the plan tier is keyed by the stats epoch,
   which only an invalidation that skews the catalog bumps; a document
   depends on the data, so the result tier is keyed by the data epoch,
   which every invalidation bumps.

   Locking: each LRU tier has its own mutex (see Lru); [plan_m]
   serializes the planner's partition choices and the admission
   estimates against each other and against a skewing [invalidate]
   (the skew, the stats epoch's bump and the plan tier's flush), so no
   plan or estimate reads a half-skewed catalog; [adm_m] +
   [adm_cv] guard the in-flight work account; [lat_m] guards the latency
   histograms.  The plan tier's mutex is the only one taken under
   another ([plan_m]), and no lock is held across execution. *)

module R = Relational
module S = Silkroute

type config = {
  domains : int;
  statement_capacity : int;
  plan_capacity : int;
  result_capacity : int;
  admission_budget : int;
  max_queue : int;
  trace_sample : int;
      (* head sampling: record spans for 1 in N queries; 1 = all, 0 = none *)
  slow_ms : float; (* slow-query threshold; 0 disables the slow path *)
  slow_log : string option; (* JSONL file for slow-query records *)
  slo : Obs.Slo.config option; (* None = no SLO accounting *)
  retain_spans : bool;
      (* keep each request's spans in the shared log after serving it;
         the long-running server sets this false so the log stays
         bounded, tests keep the default to inspect spans afterwards *)
}

let default_config =
  {
    domains = 1;
    statement_capacity = 32;
    plan_capacity = 128;
    result_capacity = 8 * 1024 * 1024;
    admission_budget = 0;
    max_queue = 64;
    trace_sample = 1;
    slow_ms = 0.0;
    slow_log = None;
    slo = None;
    retain_spans = true;
  }

type admission = Admit | Queue | Reject of string

(* The reason a query can never fit the budget, if it cannot. *)
let over_budget c ~est_cost =
  if c.admission_budget > 0 && est_cost > float_of_int c.admission_budget
  then
    Some
      (Printf.sprintf "estimated cost %.0f exceeds the admission budget %d"
         est_cost c.admission_budget)
  else None

(* Pure decision, applied under [adm_m]: a query that can never fit is
   rejected outright (waiting would deadlock the queue), one that does
   not fit now queues, and a full queue sheds load instead of building
   an unbounded convoy. *)
let admission_decision c ~est_cost ~in_flight ~waiting =
  match over_budget c ~est_cost with
  | Some reason -> Reject reason
  | None ->
      if
        c.admission_budget <= 0
        || in_flight +. est_cost <= float_of_int c.admission_budget
      then Admit
      else if waiting >= c.max_queue then
        Reject (Printf.sprintf "admission queue full (%d waiting)" waiting)
      else Queue

type counters = {
  requests : int;
  queries : int;
  admitted : int;
  queued : int;
  rejected : int;
  failed : int;
  invalidations : int;
  executed_work : int;
  slow : int;
}

(* A statement-tier entry: the prepared view, whether every plan of the
   view publishes the same bytes, and the digest of its text that keys
   the other tiers. *)
type statement = {
  prepared : S.Middleware.prepared;
  one_document : bool;
  digest : string;
}

type t = {
  db : R.Database.t;
  cfg : config;
  stats : R.Stats.t;  (* shared catalog; skewed in place by [invalidate] *)
  pool : R.Domain_pool.t;
  consistent : bool;
      (* the database meets its declared keys, foreign keys and inclusion
         dependencies; computed only when the result tier is on *)
  statements : statement Lru.t;
  plans : (int * float) Lru.t;
      (* the chosen point of the 2^|E| lattice, as a mask, and the
         admission estimate of its planned streams *)
  results : string Lru.t;  (* exactly the bytes the uncached path produced *)
  data_epoch : int Atomic.t;  (* bumped by every invalidation *)
  stats_epoch : int Atomic.t;  (* bumped only when the catalog is skewed *)
  closed : bool Atomic.t;
  plan_m : Mutex.t;
  (* admission account *)
  adm_m : Mutex.t;
  adm_cv : Condition.t;
  mutable in_flight : float;
  mutable waiting : int;
  (* counters *)
  cm : Mutex.t;
  mutable c : counters;
  (* telemetry *)
  started_ns : int64;
  trace_seq : int Atomic.t;
  slowlog : Slowlog.t option;
  slo : Obs.Slo.t option;
  lat_m : Mutex.t;
  request_ms : Obs.Histogram.t;  (* every query's wall time *)
  stage_ms : (Obs.Stage.t * Obs.Histogram.t) list;
      (* one per stage, in Obs.Stage.all order: each request's clock
         reading of every stage it reached, and its service time *)
}

let zero_counters =
  {
    requests = 0;
    queries = 0;
    admitted = 0;
    queued = 0;
    rejected = 0;
    failed = 0;
    invalidations = 0;
    executed_work = 0;
    slow = 0;
  }

let create ?(config = default_config) db =
  if config.domains < 1 then
    invalid_arg "Server.create: domains must be >= 1";
  if config.trace_sample < 0 then
    invalid_arg "Server.create: trace_sample must be >= 0";
  List.iter
    (fun (name, n) ->
      if n < 0 then invalid_arg ("Server.create: " ^ name ^ " must be >= 0"))
    [ ("statement_capacity", config.statement_capacity);
      ("plan_capacity", config.plan_capacity);
      ("result_capacity", config.result_capacity) ];
  let stats = R.Stats.analyze db in
  let consistent =
    config.result_capacity > 0
    && R.Database.check_integrity db = []
    && List.for_all (R.Database.check_inclusion db) (R.Database.inclusions db)
  in
  {
    db;
    cfg = config;
    stats;
    consistent;
    pool = R.Domain_pool.create ~domains:config.domains;
    statements =
      Lru.create ~name:"statement" ~capacity:config.statement_capacity ();
    plans = Lru.create ~name:"plan" ~capacity:config.plan_capacity ();
    results = Lru.create ~name:"result" ~capacity:config.result_capacity ();
    data_epoch = Atomic.make 0;
    stats_epoch = Atomic.make 0;
    closed = Atomic.make false;
    plan_m = Mutex.create ();
    adm_m = Mutex.create ();
    adm_cv = Condition.create ();
    in_flight = 0.0;
    waiting = 0;
    cm = Mutex.create ();
    c = zero_counters;
    started_ns = Obs.Clock.now_ns ();
    trace_seq = Atomic.make 0;
    slowlog =
      (match config.slow_log with
      | Some path -> Some (Slowlog.create ~path ())
      | None -> None);
    slo =
      (match config.slo with
      | Some slo_cfg -> Some (Obs.Slo.create ~config:slo_cfg ())
      | None -> None);
    lat_m = Mutex.create ();
    request_ms = Obs.Histogram.create Obs.Histogram.duration_bounds;
    stage_ms =
      List.map
        (fun st -> (st, Obs.Histogram.create Obs.Histogram.duration_bounds))
        Obs.Stage.all;
  }

let stats_epoch t = Atomic.get t.stats_epoch
let counters t = Mutex.protect t.cm (fun () -> t.c)
let bump f t = Mutex.protect t.cm (fun () -> t.c <- f t.c)

let tier_stats t = (Lru.stats t.statements, Lru.stats t.plans, Lru.stats t.results)

let uptime_s t =
  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t.started_ns) /. 1e9

(* --- cache tiers -------------------------------------------------------- *)

(* Statement tier: keyed by the raw RXL source text.  The prepared value
   shares the server's forced catalog, so execution under tracing never
   re-analyzes the database and OCaml 5's RacyLazy cannot fire on the
   pool.  Beside it, whether the view has one document per data epoch:
   its plans differ only in cost when the data meets the constraints the
   labels and reduction's inner joins rely on, and no variable of the
   view can be NULL; and the view's digest, hashed once per statement
   miss rather than once per request. *)
let view_digest view = Digest.to_hex (Digest.string view)

let statement_of t view =
  match Lru.find t.statements view with
  | Some st -> (st, true)
  | None ->
      let p = S.Middleware.prepare_text t.db view in
      let prepared = { p with S.Middleware.stats = Lazy.from_val t.stats } in
      let st =
        {
          prepared;
          one_document = t.consistent && S.Middleware.null_free prepared;
          digest = view_digest view;
        }
      in
      Lru.add t.statements view st;
      (st, false)

let plan_key ~digest ~skey ~reduce ~epoch =
  Printf.sprintf "%s|%s|%b|e%d" digest skey reduce epoch

(* One document per view and data epoch when every plan publishes the
   same bytes; otherwise one per plan. *)
let result_key ~one_document ~digest ~mask ~reduce ~epoch =
  if one_document then Printf.sprintf "%s|e%d" digest epoch
  else Printf.sprintf "%s|m%d|%b|e%d" digest mask reduce epoch

(* Plan tier, keyed by the stats epoch: an entry is a pure function of
   (view, strategy, reduce, catalog), so it outlives data invalidations
   and only a skew makes it stale.  A miss is the middleware's [planner]
   stage choosing the partition for the reduction the request runs with,
   then its streams planned once and priced, all under [plan_m]:
   concurrent sessions asking for the same (view, strategy, reduce,
   stats epoch) plan it once, and no [invalidate] skews the catalog
   mid-read.  Returns the mask, the estimate, the planned streams on a
   miss ([None] on a hit) and whether it hit. *)
let plan_of t (p : S.Middleware.prepared) ~digest ~strategy ~reduce ~epoch =
  let skey = S.Middleware.strategy_name strategy in
  let key = plan_key ~digest ~skey ~reduce ~epoch in
  match Lru.find t.plans key with
  | Some (mask, est_cost) -> (mask, est_cost, None, true)
  | None ->
      Mutex.protect t.plan_m (fun () ->
          match Lru.peek t.plans key with
          | Some (mask, est_cost) -> (mask, est_cost, None, true)
          | None ->
              let partition = S.Middleware.partition_of ~reduce p strategy in
              let planned = S.Middleware.plan_streams ~reduce p partition in
              let est_cost = S.Middleware.estimated_cost planned in
              let mask = S.Partition.to_mask partition in
              Lru.add t.plans key (mask, est_cost);
              (mask, est_cost, Some planned, false))

(* --- admission ---------------------------------------------------------- *)

(* Returns [Ok had_to_queue] after charging [est] to the in-flight
   account, or [Error reason].  The caller must [release] exactly once
   per [Ok]. *)
let admit t est =
  Mutex.protect t.adm_m (fun () ->
      match
        admission_decision t.cfg ~est_cost:est ~in_flight:t.in_flight
          ~waiting:t.waiting
      with
      | Reject reason -> Error reason
      | Admit ->
          t.in_flight <- t.in_flight +. est;
          Ok false
      | Queue ->
          t.waiting <- t.waiting + 1;
          let budget = float_of_int t.cfg.admission_budget in
          while t.in_flight > 0.0 && t.in_flight +. est > budget do
            Condition.wait t.adm_cv t.adm_m
          done;
          t.waiting <- t.waiting - 1;
          t.in_flight <- t.in_flight +. est;
          Ok true)

let release t est () =
  Mutex.protect t.adm_m (fun () -> t.in_flight <- t.in_flight -. est);
  Condition.broadcast t.adm_cv

let admission_account t =
  Mutex.protect t.adm_m (fun () -> (t.in_flight, t.waiting))

(* --- queries ------------------------------------------------------------ *)

let execute_on_pool t (p : S.Middleware.prepared) planned =
  let handle =
    R.Domain_pool.submit t.pool (fun () ->
        let e = S.Middleware.run planned in
        (S.Middleware.xml_string_of p e, e.S.Middleware.work))
  in
  R.Domain_pool.await handle

let query_body t ~view ~strategy ~reduce =
  Obs.Span.with_span "server.request" (fun () ->
      try
        let strat = S.Middleware.strategy_of_string strategy in
        if Obs.Span.tracing () then
          Obs.Span.add_list
            [
              Obs.Attr.string "strategy" (S.Middleware.strategy_name strat);
              Obs.Attr.bool "reduce" reduce;
            ];
        let { prepared = p; one_document; digest }, statement_hit =
          statement_of t view
        in
        let mask, est_cost, planned, plan_hit =
          plan_of t p ~digest ~strategy:strat ~reduce
            ~epoch:(Atomic.get t.stats_epoch)
        in
        let tiers hit =
          { Protocol.statement_hit; plan_hit; result_hit = hit }
        in
        let rkey =
          result_key ~one_document ~digest ~mask ~reduce
            ~epoch:(Atomic.get t.data_epoch)
        in
        (* a plan that can never fit skips the lookup, and admission
           rejects it: its view's document may come from a cheaper plan *)
        let cached =
          match over_budget t.cfg ~est_cost with
          | None -> Lru.find t.results rkey
          | Some _ -> None
        in
        match cached with
        | Some xml ->
            if Obs.Span.tracing () then
              Obs.Span.add_list
                [
                  Obs.Attr.bool "cache.result" true;
                  Obs.Attr.int "bytes" (String.length xml);
                ];
            Protocol.Result { xml; tiers = tiers true; work = 0; est_cost }
        | None -> (
            (* the estimate priced the plans the admitted request runs:
               a plan hit plans its streams here, once *)
            let planned =
              match planned with
              | Some planned -> planned
              | None ->
                  S.Middleware.plan_streams ~reduce p
                    (S.Partition.of_mask p.S.Middleware.tree mask)
            in
            match admit t est_cost with
            | Error reason ->
                bump (fun c -> { c with rejected = c.rejected + 1 }) t;
                if Obs.Span.tracing () then begin
                  Obs.Span.add "admission" (Obs.Attr.String "rejected");
                  Obs.Event.warn "server.admission.reject"
                    ~attrs:
                      [
                        Obs.Attr.string "reason" reason;
                        Obs.Attr.float "est_cost" est_cost;
                      ]
                end;
                Protocol.Rejected reason
            | Ok had_to_queue ->
                bump
                  (fun c ->
                    {
                      c with
                      admitted = c.admitted + 1;
                      queued = (c.queued + if had_to_queue then 1 else 0);
                    })
                  t;
                if Obs.Span.tracing () then begin
                  Obs.Span.add "admission"
                    (Obs.Attr.String
                       (if had_to_queue then "queued" else "admitted"));
                  if had_to_queue then
                    Obs.Event.debug "server.admission.queued"
                      ~attrs:[ Obs.Attr.float "est_cost" est_cost ]
                end;
                let xml, work =
                  Fun.protect
                    ~finally:(release t est_cost)
                    (fun () -> execute_on_pool t p planned)
                in
                Lru.add ~weight:(String.length xml) t.results rkey xml;
                bump
                  (fun c ->
                    { c with executed_work = c.executed_work + work })
                  t;
                if Obs.Span.tracing () then
                  Obs.Span.add_list
                    [
                      Obs.Attr.int "work" work;
                      Obs.Attr.int "bytes" (String.length xml);
                    ];
                Protocol.Result
                  {
                    xml;
                    tiers = tiers false;
                    work;
                    est_cost;
                  })
      with e ->
        bump (fun c -> { c with failed = c.failed + 1 }) t;
        let msg =
          match e with Invalid_argument m -> m | e -> Printexc.to_string e
        in
        if Obs.Span.tracing () then
          Obs.Event.error "server.request.failed"
            ~attrs:[ Obs.Attr.string "error" msg ];
        Protocol.Failed msg)

(* --- request telemetry --------------------------------------------------- *)

(* Head sampling: the shared sequence both names the trace and decides
   (1-in-N) whether its spans are recorded.  Sampled-out requests still
   produce events, stage times, latency and SLO samples. *)
let next_trace t =
  let seq = Atomic.fetch_and_add t.trace_seq 1 in
  let sampled =
    match t.cfg.trace_sample with
    | 0 -> false
    | 1 -> true
    | n -> seq mod n = 0
  in
  (Printf.sprintf "t%06d" seq, sampled)

let tiers_json = function
  | Protocol.Result { tiers; _ } ->
      Obs.Json.Obj
        [
          ("statement", Obs.Json.Bool tiers.Protocol.statement_hit);
          ("plan", Obs.Json.Bool tiers.Protocol.plan_hit);
          ("result", Obs.Json.Bool tiers.Protocol.result_hit);
        ]
  | _ -> Obs.Json.Null

(* One entry per stage, in stage-list order, from the request's clock. *)
let stages_json clock =
  Obs.Json.List
    (List.map
       (fun st ->
         Obs.Json.Obj
           [
             ("name", Obs.Json.String (Obs.Stage.name st));
             ( "ms",
               Obs.Json.Float
                 (Obs.Clock.ns_to_ms (Int64.of_int (Obs.Stage.ns clock st))) );
           ])
       Obs.Stage.all)

let slow_record t ~trace_id ~view ~strategy ~reduce ~ms ~clock
    ~(gc : Obs.Profile.gc) reply =
  let work, bytes =
    match reply with
    | Protocol.Result { work; xml; _ } -> (work, String.length xml)
    | _ -> (0, 0)
  in
  Obs.Json.Obj
    [
      ("type", Obs.Json.String "slow_query");
      ("trace_id", Obs.Json.String trace_id);
      (* an epoch timestamp, so calendar time rather than the monotonic
         clock that times [ms] *)
      ("ts_ms", Obs.Json.Float (Obs.Clock.ns_to_ms (Obs.Clock.wall ())));
      ("ms", Obs.Json.Float ms);
      ("threshold_ms", Obs.Json.Float t.cfg.slow_ms);
      ("view_digest", Obs.Json.String (view_digest view));
      ("strategy", Obs.Json.String strategy);
      ("reduce", Obs.Json.Bool reduce);
      ("reply", Obs.Json.String (Protocol.reply_name reply));
      ("tiers", tiers_json reply);
      ("work", Obs.Json.Int work);
      ("bytes", Obs.Json.Int bytes);
      ( "gc",
        Obs.Json.Obj
          [
            ("promoted_words", Obs.Json.Float gc.promoted_words);
            ("major_words", Obs.Json.Float gc.major_words);
            ("minor_collections", Obs.Json.Int gc.minor_collections);
            ("major_collections", Obs.Json.Int gc.major_collections);
          ] );
      ("stages", stages_json clock);
    ]

(* Post-reply accounting: the [service] stage (wall time the pipeline
   stages do not cover), the latency histograms (the request's wall
   time, and each stage it reached — [service] always), the SLO account,
   the slow-query record ([gc0] is [None] when the slow path is off) and
   — when spans are not retained — pruning the request's spans from the
   shared log. *)
let finish_request t ~trace_id ~sampled ~view ~strategy ~reduce ~wall_ns
    ~clock ~gc0 reply =
  let pipeline_ns =
    List.fold_left (fun acc st -> acc + Obs.Stage.ns clock st) 0
      Obs.Stage.pipeline
  in
  Obs.Stage.add clock Obs.Stage.Service (max 0 (wall_ns - pipeline_ns));
  let ms = Obs.Clock.ns_to_ms (Int64.of_int wall_ns) in
  Mutex.protect t.lat_m (fun () ->
      Obs.Histogram.observe t.request_ms ms;
      List.iter
        (fun (st, h) ->
          let ns = Obs.Stage.ns clock st in
          if ns > 0 || st = Obs.Stage.Service then
            Obs.Histogram.observe h (Obs.Clock.ns_to_ms (Int64.of_int ns)))
        t.stage_ms);
  (match t.slo with
  | Some slo ->
      let error =
        match reply with
        | Protocol.Failed _ | Protocol.Rejected _ -> true
        | _ -> false
      in
      Obs.Slo.record slo ~error
        ~now_ms:(Obs.Clock.ns_to_ms (Obs.Clock.now_ns ()))
        ms
  | None -> ());
  (match gc0 with
  | Some gc0 when ms >= t.cfg.slow_ms ->
      bump (fun c -> { c with slow = c.slow + 1 }) t;
      let record =
        slow_record t ~trace_id ~view ~strategy ~reduce ~ms ~clock
          ~gc:(Obs.Profile.gc_since gc0) reply
      in
      (match t.slowlog with
      | Some log -> ignore (Slowlog.write log record)
      | None -> ());
      Obs.Event.warn "server.slow_query"
        ~attrs:
          [
            Obs.Attr.float "ms" ms;
            Obs.Attr.float "threshold_ms" t.cfg.slow_ms;
            Obs.Attr.string "reply" (Protocol.reply_name reply);
          ]
  | _ -> ());
  if sampled && Obs.Span.tracing () && not t.cfg.retain_spans then
    let id = Obs.Attr.String trace_id in
    Obs.Span.prune (fun s -> Obs.Span.find_attr s "trace_id" = Some id)

let query t ~view ~strategy ~reduce =
  bump (fun c -> { c with queries = c.queries + 1 }) t;
  if Atomic.get t.closed then Protocol.Failed "server is shut down"
  else begin
    let trace_id, sampled = next_trace t in
    let clock = Obs.Stage.clock () in
    (* [Gc.quick_stat], under [gc_now], costs more than the rest of a
       cached request's telemetry together: read it only when a slow
       record may need it *)
    let gc0 =
      if t.cfg.slow_ms > 0.0 then Some (Obs.Profile.gc_now ()) else None
    in
    let t0 = Obs.Clock.now_ns () in
    let reply =
      Obs.Span.with_request ~trace_id ~sampled clock (fun () ->
          query_body t ~view ~strategy ~reduce)
    in
    let wall_ns = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0) in
    finish_request t ~trace_id ~sampled ~view ~strategy ~reduce ~wall_ns
      ~clock ~gc0 reply;
    reply
  end

(* --- invalidation ------------------------------------------------------- *)

(* Entries of older epochs can never be looked up again (the epoch is
   part of their key); flushing reclaims their space immediately.  Plans
   depend on the catalog only, so a skew-less invalidation keeps them. *)
let invalidate ?skew t =
  (match skew with
  | Some (table, factor) ->
      Mutex.protect t.plan_m (fun () ->
          R.Stats.scale_table t.stats table factor;
          Atomic.incr t.stats_epoch;
          Lru.clear t.plans)
  | None -> ());
  Atomic.incr t.data_epoch;
  Lru.clear t.results;
  bump (fun c -> { c with invalidations = c.invalidations + 1 }) t;
  if Obs.Span.tracing () then
    Obs.Event.info "server.invalidate"
      ~attrs:
        ([
           Obs.Attr.int "data_epoch" (Atomic.get t.data_epoch);
           Obs.Attr.int "stats_epoch" (stats_epoch t);
         ]
        @
        match skew with
        | Some (table, factor) ->
            [ Obs.Attr.string "table" table; Obs.Attr.float "factor" factor ]
        | None -> [])

(* --- reporting ---------------------------------------------------------- *)

let render_tier (s : Lru.stats) name =
  Printf.sprintf
    "%s: hits=%d misses=%d insertions=%d evictions=%d flushes=%d entries=%d \
     weight=%d hit_ratio=%.3f"
    name s.Lru.hits s.Lru.misses s.Lru.insertions s.Lru.evictions s.Lru.flushes
    s.Lru.entries s.Lru.weight
    (Lru.ratio_of ~hits:s.Lru.hits ~misses:s.Lru.misses)

let render_stats t =
  let c = counters t in
  let st, pl, re = tier_stats t in
  String.concat "\n"
    [
      Printf.sprintf
        "server: requests=%d queries=%d admitted=%d queued=%d rejected=%d \
         failed=%d invalidations=%d slow=%d epoch=%d work=%d"
        c.requests c.queries c.admitted c.queued c.rejected c.failed
        c.invalidations c.slow (stats_epoch t) c.executed_work;
      render_tier st "statement";
      render_tier pl "plan";
      render_tier re "result";
    ]

(* --- telemetry exposition ------------------------------------------------ *)

(* Service counters, cache tiers, admission, pool, slow log, SLO, the
   latency summaries (request and per stage) and the event counts.
   Cache hit ratios are derived from the same Lru.stats read as the
   hit/miss counters — Lru.ratio_of is the one formula this,
   [render_stats] and the tests share. *)
let exposition_samples t =
  let sample = Obs.Expose.sample in
  let c = counters t in
  let counter ?labels name v =
    sample ?labels Obs.Expose.Counter name (float_of_int v)
  in
  let gauge ?labels name v = sample ?labels Obs.Expose.Gauge name v in
  let server =
    [
      gauge "silkroute_uptime_seconds" (uptime_s t);
      gauge "silkroute_stats_epoch" (float_of_int (stats_epoch t));
      counter "silkroute_server_requests_total" c.requests;
      counter "silkroute_server_queries_total" c.queries;
      counter "silkroute_server_admitted_total" c.admitted;
      counter "silkroute_server_queued_total" c.queued;
      counter "silkroute_server_rejected_total" c.rejected;
      counter "silkroute_server_failed_total" c.failed;
      counter "silkroute_server_invalidations_total" c.invalidations;
      counter "silkroute_server_executed_work_total" c.executed_work;
      counter "silkroute_server_slow_queries_total" c.slow;
    ]
  in
  let tier name (s : Lru.stats) =
    let labels = [ ("tier", name) ] in
    [
      counter ~labels "silkroute_cache_hits_total" s.Lru.hits;
      counter ~labels "silkroute_cache_misses_total" s.Lru.misses;
      counter ~labels "silkroute_cache_insertions_total" s.Lru.insertions;
      counter ~labels "silkroute_cache_evictions_total" s.Lru.evictions;
      counter ~labels "silkroute_cache_flushes_total" s.Lru.flushes;
      gauge ~labels "silkroute_cache_entries" (float_of_int s.Lru.entries);
      gauge ~labels "silkroute_cache_weight" (float_of_int s.Lru.weight);
      gauge ~labels "silkroute_cache_hit_ratio"
        (Lru.ratio_of ~hits:s.Lru.hits ~misses:s.Lru.misses);
    ]
  in
  let st, pl, re = tier_stats t in
  let tiers = tier "statement" st @ tier "plan" pl @ tier "result" re in
  let in_flight, waiting = admission_account t in
  let admission =
    [
      gauge "silkroute_admission_in_flight_work" in_flight;
      gauge "silkroute_admission_waiting" (float_of_int waiting);
      gauge "silkroute_pool_queue_depth"
        (float_of_int (R.Domain_pool.queue_depth t.pool));
      gauge "silkroute_pool_domains" (float_of_int t.cfg.domains);
    ]
  in
  let slowlog_samples =
    match t.slowlog with
    | None -> []
    | Some log ->
        [
          counter "silkroute_slowlog_written_total" (Slowlog.written log);
          counter "silkroute_slowlog_dropped_total" (Slowlog.dropped log);
        ]
  in
  let slo_samples =
    match t.slo with
    | None -> []
    | Some slo ->
        let s =
          Obs.Slo.snapshot slo ~now_ms:(Obs.Clock.ns_to_ms (Obs.Clock.now_ns ()))
        in
        [
          gauge "silkroute_slo_samples" (float_of_int s.Obs.Slo.samples);
          gauge "silkroute_slo_errors" (float_of_int s.Obs.Slo.errors);
          gauge "silkroute_slo_error_rate" s.Obs.Slo.error_rate;
          gauge "silkroute_slo_p50_ms" s.Obs.Slo.p50_ms;
          gauge "silkroute_slo_p90_ms" s.Obs.Slo.p90_ms;
          gauge "silkroute_slo_p99_ms" s.Obs.Slo.p99_ms;
          gauge "silkroute_slo_burn_rate" s.Obs.Slo.burn_rate;
          gauge "silkroute_slo_breached"
            (if s.Obs.Slo.breached then 1.0 else 0.0);
        ]
  in
  let latency =
    Mutex.protect t.lat_m (fun () ->
        Obs.Expose.summary "silkroute_server_request_ms" t.request_ms
        @ List.concat_map
            (fun (st, h) ->
              Obs.Expose.summary
                ~labels:[ ("stage", Obs.Stage.name st) ]
                "silkroute_stage_ms" h)
            t.stage_ms)
  in
  let events =
    List.map
      (fun l ->
        counter
          ~labels:[ ("level", Obs.Event.level_name l) ]
          "silkroute_events_total" (Obs.Event.count l))
      Obs.Event.[ Debug; Info; Warn; Error ]
    @ [ counter "silkroute_events_dumps_total" (Obs.Event.dump_count ()) ]
  in
  server @ tiers @ admission @ slowlog_samples @ slo_samples @ latency @ events

(* The [M] request's Prometheus-style text: every series above from one
   consistent snapshot. *)
let render_exposition t = Obs.Expose.render (exposition_samples t)

(* The [H] request's one-line liveness summary. *)
let render_health t =
  let in_flight, waiting = admission_account t in
  let breached =
    match t.slo with
    | Some slo ->
        (Obs.Slo.snapshot slo
           ~now_ms:(Obs.Clock.ns_to_ms (Obs.Clock.now_ns ())))
          .Obs.Slo.breached
    | None -> false
  in
  Printf.sprintf
    "status=%s uptime_s=%.1f epoch=%d requests=%d queue_depth=%d \
     in_flight=%.1f waiting=%d slo_breached=%b"
    (if Atomic.get t.closed then "closing" else "ok")
    (uptime_s t) (stats_epoch t) (counters t).requests
    (R.Domain_pool.queue_depth t.pool)
    in_flight waiting breached

(* --- lifecycle / protocol ------------------------------------------------ *)

let shutdown t =
  if not (Atomic.exchange t.closed true) then begin
    (* wake queued admissions so their sessions can fail out *)
    Mutex.protect t.adm_m (fun () -> ());
    Condition.broadcast t.adm_cv;
    R.Domain_pool.shutdown t.pool;
    match t.slowlog with Some log -> Slowlog.close log | None -> ()
  end

let handle t req =
  bump (fun c -> { c with requests = c.requests + 1 }) t;
  match req with
  | Protocol.Query { view; strategy; reduce } -> query t ~view ~strategy ~reduce
  | Protocol.Invalidate { table; factor } -> (
      match
        if table = "" then Ok None
        else if not (Float.is_finite factor && factor > 0.0) then
          Error (Printf.sprintf "bad skew factor %g for table %s" factor table)
        else Ok (Some (table, factor))
      with
      | Error msg ->
          bump (fun c -> { c with failed = c.failed + 1 }) t;
          Protocol.Failed msg
      | Ok skew -> (
          match invalidate ?skew t with
          | () ->
              Protocol.Info
                (Printf.sprintf
                   "invalidated; data epoch now %d, stats epoch now %d"
                   (Atomic.get t.data_epoch) (stats_epoch t))
          | exception Invalid_argument msg ->
              bump (fun c -> { c with failed = c.failed + 1 }) t;
              Protocol.Failed msg))
  | Protocol.Stats -> Protocol.Info (render_stats t)
  | Protocol.Metrics -> Protocol.Info (render_exposition t)
  | Protocol.Health -> Protocol.Info (render_health t)
  | Protocol.Shutdown ->
      shutdown t;
      Protocol.Info "shutting down"

type listener = { sock : Unix.file_descr; path : string }

(* Only a stale socket at [socket] — one nothing accepts on — is
   replaced; any other file there is an error and stays as it was. *)
let listen ~socket =
  let in_use () =
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close probe) (fun () ->
        match Unix.connect probe (Unix.ADDR_UNIX socket) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  (match (Unix.lstat socket).Unix.st_kind with
  | Unix.S_SOCK when not (in_use ()) -> Unix.unlink socket
  | Unix.S_SOCK -> invalid_arg ("serve: a server is listening on " ^ socket)
  | _ ->
      invalid_arg
        (Printf.sprintf "serve: %s exists and is not a socket" socket)
  | exception Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX socket);
     Unix.listen sock 64
   with Unix.Unix_error (e, _, _) ->
     Unix.close sock;
     raise (Unix.Unix_error (e, "bind", socket)));
  { sock; path = socket }

let serve_unix ?(session_threads = true) t { sock; path = socket } =
  let stop = Atomic.make false in
  let threads = ref [] in
  let session fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec loop () =
      match Protocol.read_request ic with
      | None -> ()
      | Some req -> (
          let reply = handle t req in
          (* a reply the client could not read (a field over the frame
             limit) is answered with the reason instead *)
          (try Protocol.write_reply oc reply
           with Protocol.Protocol_error msg ->
             bump (fun c -> { c with failed = c.failed + 1 }) t;
             Protocol.write_reply oc (Protocol.Failed msg));
          match req with
          | Protocol.Shutdown -> Atomic.set stop true
          | _ -> loop ())
    in
    (try loop () with
    | Protocol.Protocol_error msg -> (
        try Protocol.write_reply oc (Protocol.Failed ("protocol error: " ^ msg))
        with Sys_error _ -> ())
    | End_of_file | Sys_error _ -> ());
    close_out_noerr oc
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ sock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ ->
          let fd, _ = Unix.accept sock in
          if session_threads then
            threads := Thread.create session fd :: !threads
          else session fd);
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      List.iter Thread.join !threads;
      shutdown t)
    accept_loop
