(* The traced run: replays a workload's script in process, timing every
   call into a layer's public functions.

   Export workloads run the Fig. 7 pipeline by hand, in the order the
   middleware runs it: RXL parse, view tree, genPlan (greedy only), SQL
   generation, and per stream SQL print, SQL parse, physical planning and
   execution, then the merge-tagger.  Serve workloads send each request
   through [Protocol] over a socketpair into an in-process
   [Service.handle], like the server's session loop; every cache miss is
   then replayed through the pipeline beside the request ("shadow"
   spans), which splits [service.miss_busy_ms] into the same layers.
   Shadow spans run outside the request's wall time: they count towards
   the [*.miss_*] metrics only, never towards [*.busy_ms] or a share of
   request time.

   Spans are kept in memory, share the request's id, and are written out
   at the end. *)

module R = Relational
module S = Silkroute
module W = Workloads

type span = { req : int; layer : string; shadow : bool; t0 : int64; t1 : int64 }

let spans : span list ref = ref []
let now = Obs.Clock.now_ns

let timed ?(shadow = false) req layer f =
  let t0 = now () in
  let r = f () in
  spans := { req; layer; shadow; t0; t1 = now () } :: !spans;
  r

(* counts per run; each repeats exactly for a given script *)
type counts = {
  mutable work : int;
  mutable scanned : int;
  mutable probed : int;
  mutable sorted : int;
  mutable spills : int;
  mutable streams : int;
  mutable tuples_in : int;
  mutable bytes_out : int;
  mutable oracle : int;
  mutable plan_cache_hits : int;
  mutable proto_bytes : int;
  mutable failed : int;
}

let counts =
  {
    work = 0;
    scanned = 0;
    probed = 0;
    sorted = 0;
    spills = 0;
    streams = 0;
    tuples_in = 0;
    bytes_out = 0;
    oracle = 0;
    plan_cache_hits = 0;
    proto_bytes = 0;
    failed = 0;
  }

let reset_counts () =
  counts.work <- 0;
  counts.scanned <- 0;
  counts.probed <- 0;
  counts.sorted <- 0;
  counts.spills <- 0;
  counts.streams <- 0;
  counts.tuples_in <- 0;
  counts.bytes_out <- 0;
  counts.oracle <- 0;
  counts.plan_cache_hits <- 0;
  counts.proto_bytes <- 0;
  counts.failed <- 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      counts.failed <- counts.failed + 1;
      prerr_endline ("replay: " ^ msg))
    fmt

(* --- the pipeline, layer by layer ------------------------------------- *)

let gen_plan ?shadow req db oracle (p : S.Middleware.prepared) ~reduce =
  timed ?shadow req "planner" (fun () ->
      let r =
        S.Planner.gen_plan ~reduce db oracle p.S.Middleware.tree
          p.S.Middleware.labels S.Planner.default_params
      in
      counts.oracle <- counts.oracle + r.S.Planner.requests;
      counts.plan_cache_hits <- counts.plan_cache_hits + r.S.Planner.cache_hits;
      S.Planner.best_plan p.S.Middleware.tree r)

let pipeline ?shadow req db (p : S.Middleware.prepared) partition ~reduce =
  let timed layer f = timed ?shadow req layer f in
  let opts =
    {
      S.Sql_gen.style = S.Sql_gen.Outer_join;
      labels = (if reduce then Some p.S.Middleware.labels else None);
    }
  in
  let streams =
    timed "sql_gen" (fun () ->
        S.Sql_gen.streams db p.S.Middleware.tree partition opts)
  in
  counts.streams <- counts.streams + List.length streams;
  let rels =
    List.map
      (fun (s : S.Sql_gen.stream) ->
        let text = timed "sql_print" (fun () -> R.Sql_print.to_string s.S.Sql_gen.query) in
        let ast = timed "sql_parser" (fun () -> R.Sql_parser.parse text) in
        let plan = timed "physical" (fun () -> R.Physical.plan_of db ast) in
        let rel, st =
          timed "executor" (fun () -> R.Executor.run_plan_with_stats db plan)
        in
        counts.work <- counts.work + st.R.Executor.work;
        counts.scanned <- counts.scanned + st.R.Executor.scanned;
        counts.probed <- counts.probed + st.R.Executor.probed;
        counts.sorted <- counts.sorted + st.R.Executor.sorted;
        counts.spills <- counts.spills + st.R.Executor.spill_passes;
        counts.tuples_in <- counts.tuples_in + R.Relation.cardinality rel;
        (s, rel))
      streams
  in
  let xml = timed "tagger" (fun () -> S.Tagger.to_string p.S.Middleware.tree rels) in
  counts.bytes_out <- counts.bytes_out + String.length xml;
  xml

(* --- export workloads: the pipeline is the request ---------------------- *)

let export_request (ctx : W.ctx) oracle refs req = function
  | W.Query { view; strategy; reduce } as q ->
      let db = ctx.W.db in
      let rxl = timed req "rxl_parser" (fun () -> S.Rxl_parser.parse W.views.(view)) in
      let p = timed req "view_tree" (fun () -> S.Middleware.prepare db rxl) in
      let partition =
        if strategy = "greedy" then gen_plan req db oracle p ~reduce
        else S.Partition.of_mask p.S.Middleware.tree (W.mask_of ctx q)
      in
      let xml = pipeline req db p partition ~reduce in
      if not (String.equal xml refs.(view)) then
        fail "request %d (%s %s): XML differs from the reference" req
          W.view_names.(view) strategy
  | W.Invalidate -> fail "request %d: export scripts hold no invalidations" req

let run_export ctx oracle refs warmup script =
  Array.iter (fun r -> export_request ctx oracle refs (-1) r) warmup;
  spans := [];
  reset_counts ();
  Array.iteri
    (fun i r ->
      let t0 = now () in
      export_request ctx oracle refs i r;
      spans := { req = i; layer = "request"; shadow = false; t0; t1 = now () } :: !spans)
    script

(* --- serve workloads: Protocol + Service, misses replayed beside -------- *)

type tier_delta = { hits : int; misses : int; evictions : int }

let delta (a : Server.Lru.stats) (b : Server.Lru.stats) =
  {
    hits = b.Server.Lru.hits - a.Server.Lru.hits;
    misses = b.Server.Lru.misses - a.Server.Lru.misses;
    evictions = b.Server.Lru.evictions - a.Server.Lru.evictions;
  }

let ratio d =
  if d.hits + d.misses = 0 then 0.0
  else float_of_int d.hits /. float_of_int (d.hits + d.misses)

type service_outcome = {
  statement : tier_delta;
  plan : tier_delta;
  result : tier_delta;
  queued : int;
}

let no_service =
  let z = { hits = 0; misses = 0; evictions = 0 } in
  { statement = z; plan = z; result = z; queued = 0 }

let run_serve (w : W.t) (ctx : W.ctx) oracle refs warmup script =
  let config =
    {
      Server.Service.default_config with
      Server.Service.domains = 1;
      statement_capacity = w.W.statement_cache;
      plan_capacity = w.W.plan_cache;
      result_capacity = w.W.result_cache;
      retain_spans = false;
    }
  in
  let svc = Server.Service.create ~config ctx.W.db in
  Array.iter (fun r -> ignore (Server.Service.handle svc (W.to_protocol r))) warmup;
  let st0, pl0, re0 = Server.Service.tier_stats svc in
  let c0 = Server.Service.counters svc in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client_ic = Unix.in_channel_of_descr a and client_oc = Unix.out_channel_of_descr a in
  let server_ic = Unix.in_channel_of_descr b and server_oc = Unix.out_channel_of_descr b in
  (* replies outgrow the socket buffer, so the server side writes from
     its own thread while the client side reads, as two processes would *)
  let replies = Event.new_channel () in
  let writer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Event.sync (Event.receive replies) with
          | Some r ->
              Server.Protocol.write_reply server_oc r;
              loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  let sent = pos_out client_oc and replied = pos_out server_oc in
  Array.iteri
    (fun i r ->
      let preq = W.to_protocol r in
      let t0 = now () in
      Server.Protocol.write_request client_oc preq;
      let got = Option.get (Server.Protocol.read_request server_ic) in
      let t1 = now () in
      let reply = Server.Service.handle svc got in
      let t2 = now () in
      Event.sync (Event.send replies (Some reply));
      let back = Server.Protocol.read_reply client_ic in
      let t3 = now () in
      let hit =
        match reply with
        | Server.Protocol.Result { tiers; _ } -> tiers.Server.Protocol.result_hit
        | _ -> false
      in
      spans :=
        { req = i; layer = "request"; shadow = false; t0; t1 = t3 }
        :: { req = i; layer = "protocol"; shadow = false; t0 = t2; t1 = t3 }
        :: {
             req = i;
             layer = (if hit then "service.hit" else "service.miss");
             shadow = false;
             t0 = t1;
             t1 = t2;
           }
        :: { req = i; layer = "protocol"; shadow = false; t0; t1 }
        :: !spans;
      match (r, back) with
      | W.Query { view; strategy; reduce }, Some (Server.Protocol.Result { xml; tiers; _ })
        ->
          if not (String.equal xml refs.(view)) then
            fail "request %d (%s %s): XML differs from the reference" i
              W.view_names.(view) strategy;
          let p =
            if tiers.Server.Protocol.statement_hit then ctx.W.prepared.(view)
            else
              let rxl =
                timed ~shadow:true i "rxl_parser" (fun () ->
                    S.Rxl_parser.parse W.views.(view))
              in
              timed ~shadow:true i "view_tree" (fun () ->
                  S.Middleware.prepare ctx.W.db rxl)
          in
          let partition =
            if strategy = "greedy" && not tiers.Server.Protocol.plan_hit then
              gen_plan ~shadow:true i ctx.W.db oracle p ~reduce
            else S.Partition.of_mask p.S.Middleware.tree (W.mask_of ctx r)
          in
          if not tiers.Server.Protocol.result_hit then
            ignore (pipeline ~shadow:true i ctx.W.db p partition ~reduce)
      | W.Invalidate, Some (Server.Protocol.Info _) -> ()
      | _, Some reply ->
          fail "request %d: unexpected %s reply" i (Server.Protocol.reply_name reply)
      | _, None -> fail "request %d: no reply" i)
    script;
  Event.sync (Event.send replies None);
  Thread.join writer;
  counts.proto_bytes <- pos_out client_oc - sent + (pos_out server_oc - replied);
  close_out client_oc;
  close_out server_oc;
  let st1, pl1, re1 = Server.Service.tier_stats svc in
  let c1 = Server.Service.counters svc in
  Server.Service.shutdown svc;
  {
    statement = delta st0 st1;
    plan = delta pl0 pl1;
    result = delta re0 re1;
    queued = c1.Server.Service.queued - c0.Server.Service.queued;
  }

(* --- totals --------------------------------------------------------------- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6
let dur s = Int64.sub s.t1 s.t0

(* Per request: wall, and the time its direct (non-shadow) layer spans
   cover.  [outside] is the difference. *)
let per_request () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let wall, layers = Option.value (Hashtbl.find_opt tbl s.req) ~default:(0L, 0L) in
      if s.layer = "request" then Hashtbl.replace tbl s.req (dur s, layers)
      else if not s.shadow then
        Hashtbl.replace tbl s.req (wall, Int64.add layers (dur s)))
    !spans;
  tbl

let layer_ms ?(shadow = false) layer =
  List.fold_left
    (fun acc s -> if s.layer = layer && s.shadow = shadow then Int64.add acc (dur s) else acc)
    0L !spans
  |> ms_of_ns

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%s\t%d\t%Ld\t%Ld\n" s.req s.layer
            (if s.shadow then 1 else 0)
            s.t0 s.t1)
        (List.rev !spans))

let metrics ~csv_ms ~stats_ms svc =
  let request_ms = layer_ms "request" in
  let outside_ms =
    Hashtbl.fold
      (fun _ (wall, layers) acc -> acc +. ms_of_ns (Int64.sub wall layers))
      (per_request ()) 0.0
  in
  let share ms = if request_ms > 0.0 then 100.0 *. ms /. request_ms else 0.0 in
  let busy name layer =
    let ms = layer_ms layer in
    [ (name ^ ".busy_ms", ms, "ms"); (name ^ ".share_pct", share ms, "%") ]
  in
  (* a layer's time in the shadow replays of cache misses, as a share of
     the service's miss time *)
  let miss_ms = layer_ms "service.miss" in
  let in_misses layer =
    let ms = layer_ms ~shadow:true layer in
    [
      (layer ^ ".miss_busy_ms", ms, "ms");
      (layer ^ ".miss_share_pct", (if miss_ms > 0.0 then 100.0 *. ms /. miss_ms else 0.0), "%");
    ]
  in
  let count name n = (name, float_of_int n, "count") in
  let service_ms = layer_ms "service.hit" +. miss_ms in
  List.concat
    [
      [ ("replay.request_ms", request_ms, "ms") ];
      busy "executor" "executor";
      in_misses "executor";
      [
        count "executor.work_units" counts.work;
        count "executor.rows_scanned" counts.scanned;
        count "executor.rows_probed" counts.probed;
        count "executor.rows_sorted" counts.sorted;
        count "executor.spill_passes" counts.spills;
      ];
      busy "tagger" "tagger";
      in_misses "tagger";
      [ count "tagger.tuples_in" counts.tuples_in; count "tagger.bytes_out" counts.bytes_out ];
      busy "planner" "planner";
      in_misses "planner";
      [
        count "planner.oracle_requests" counts.oracle;
        count "planner.cache_hits" counts.plan_cache_hits;
      ];
      busy "rxl_parser" "rxl_parser";
      busy "view_tree" "view_tree";
      busy "sql_gen" "sql_gen";
      [ count "sql_gen.streams" counts.streams ];
      busy "sql_print" "sql_print";
      busy "sql_parser" "sql_parser";
      busy "physical" "physical";
      [
        ("service.hit_busy_ms", layer_ms "service.hit", "ms");
        ("service.miss_busy_ms", miss_ms, "ms");
        ("service.share_pct", share service_ms, "%");
        ("service.statement_hit_ratio", ratio svc.statement, "ratio");
        ("service.plan_hit_ratio", ratio svc.plan, "ratio");
        ("service.result_hit_ratio", ratio svc.result, "ratio");
        count "service.result_evictions" svc.result.evictions;
        count "service.admission_queued" svc.queued;
      ];
      busy "protocol" "protocol";
      [ count "protocol.bytes" counts.proto_bytes ];
      [ ("csv.busy_ms", csv_ms, "ms"); ("stats.busy_ms", stats_ms, "ms") ];
      [ ("outside.busy_ms", outside_ms, "ms"); ("outside.share_pct", share outside_ms, "%") ];
    ]

let render_table rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "%-30s %14s  %s\n" "layer metric" "value" "unit");
  List.iter
    (fun (name, v, unit) ->
      Buffer.add_string b (Printf.sprintf "%-30s %14.3f  %s\n" name v unit))
    rows;
  Buffer.contents b

(* --- entry point ---------------------------------------------------------- *)

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, ms_of_ns (Int64.sub (now ()) t0))

(* Loads the database the way [silkroute serve --schema --data] does,
   timing the CSV loader and the catalog analysis as the set-up layers. *)
let load_database dir =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let db = R.Source_desc.load_database (read (Filename.concat dir "schema.sd")) in
  let csv_ms =
    List.fold_left
      (fun acc table ->
        let path = Filename.concat (Filename.concat dir "data") (table ^ ".csv") in
        let text = read path in
        let _, ms = time_ms (fun () -> R.Csv.load ~source:path db table text) in
        acc +. ms)
      0.0 (R.Database.table_names db)
  in
  let stats, stats_ms = time_ms (fun () -> R.Stats.analyze db) in
  (db, stats, csv_ms, stats_ms)

let run (w : W.t) ~dir =
  let db, stats, csv_ms, stats_ms = load_database dir in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let refs =
    Array.mapi
      (fun i _ -> read (Filename.concat dir (Printf.sprintf "ref%d.xml" i)))
      W.views
  in
  let ctx = W.context ~refs db in
  let oracle = R.Cost.oracle_with_stats db stats in
  let warmup = W.read_script (Filename.concat dir "warmup.txt") in
  let script = W.read_script (Filename.concat dir "script.txt") in
  let svc =
    if String.length w.W.name >= 6 && String.sub w.W.name 0 6 = "serve-" then begin
      (* the shadow replays need the greedy masks; compute them untimed *)
      ignore (Lazy.force ctx.W.greedy);
      run_serve w ctx oracle refs warmup script
    end
    else begin
      run_export ctx oracle refs warmup script;
      no_service
    end
  in
  write_spans (Filename.concat dir "spans.tsv");
  let rows = metrics ~csv_ms ~stats_ms svc in
  prerr_string (Printf.sprintf "per-layer table, %s:\n%s" w.W.name (render_table rows));
  let json =
    Obs.Json.Obj
      [
        ("attempted", Obs.Json.Int (Array.length script));
        ("failed", Obs.Json.Int counts.failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 ( name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ] ))
               rows) );
      ]
  in
  print_endline (Obs.Json.to_string json)
