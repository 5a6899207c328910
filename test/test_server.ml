(* The query server: cache tiers, admission control, protocol framing,
   the workload driver, and the latent-bug regressions that rode along
   with this layer (tagger empty-SFI error, planner missing-edge error,
   monotonic clock watermark). *)

open Server
module R = Relational
module S = Silkroute

(* One small database for the whole suite — server tests need real
   executions, not big ones. *)
let db = lazy (Tpch.Gen.generate (Tpch.Gen.config 0.05))

let with_server ?config f =
  let t = Service.create ?config (Lazy.force db) in
  Fun.protect ~finally:(fun () -> Service.shutdown t) (fun () -> f t)

let xml_of = function
  | Protocol.Result { xml; _ } -> xml
  | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r)

let tiers_of = function
  | Protocol.Result { tiers; _ } -> tiers
  | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r)

(* --- LRU ---------------------------------------------------------------- *)

let test_lru_hit_miss_eviction () =
  let c = Lru.create ~name:"t" ~capacity:3 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  (* a is now MRU; adding d evicts b (the LRU) *)
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (list string)) "MRU order" [ "a"; "d"; "c" ] (Lru.keys_mru c);
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "entries" 3 s.Lru.entries

let test_lru_weights () =
  let c = Lru.create ~name:"t" ~capacity:100 () in
  Lru.add ~weight:60 c "a" "a";
  Lru.add ~weight:30 c "b" "b";
  (* 60 + 30 + 40 > 100: a (LRU) must go *)
  Lru.add ~weight:40 c "c" "c";
  Alcotest.(check (option string)) "a evicted" None (Lru.find c "a");
  Alcotest.(check int) "weight" 70 (Lru.total_weight c);
  (* an entry heavier than the whole budget is not admitted and does
     not disturb the cache *)
  Lru.add ~weight:101 c "huge" "huge";
  Alcotest.(check (option string)) "huge dropped" None (Lru.find c "huge");
  Alcotest.(check int) "cache untouched" 2 (Lru.length c);
  (* replacing an entry updates the weight account *)
  Lru.add ~weight:10 c "b" "b2";
  Alcotest.(check int) "replace adjusts weight" 50 (Lru.total_weight c)

let test_lru_clear_and_disabled () =
  let c = Lru.create ~name:"t" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "flush counted" 1 (Lru.stats c).Lru.flushes;
  let off = Lru.create ~name:"off" ~capacity:0 () in
  Lru.add off "a" 1;
  Alcotest.(check (option int)) "disabled never stores" None (Lru.find off "a")

let test_lru_peek_counts_nothing () =
  let c = Lru.create ~name:"t" ~capacity:2 () in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "peek hit" (Some 1) (Lru.peek c "a");
  Alcotest.(check (option int)) "peek miss" None (Lru.peek c "b");
  let s = Lru.stats c in
  Alcotest.(check int) "no hits" 0 s.Lru.hits;
  Alcotest.(check int) "no misses" 0 s.Lru.misses

let test_lru_hit_ratio () =
  (* the exposition's gauge arithmetic, pinned *)
  Alcotest.(check (float 0.0)) "0/0 is 0" 0.0 (Lru.ratio_of ~hits:0 ~misses:0);
  Alcotest.(check (float 0.0)) "3/1 is .75" 0.75 (Lru.ratio_of ~hits:3 ~misses:1);
  Alcotest.(check (float 0.0)) "all misses" 0.0 (Lru.ratio_of ~hits:0 ~misses:7);
  Alcotest.(check (float 0.0)) "all hits" 1.0 (Lru.ratio_of ~hits:5 ~misses:0);
  let c = Lru.create ~name:"t" ~capacity:2 () in
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  ignore (Lru.find c "a");
  ignore (Lru.find c "b");
  Alcotest.(check (float 1e-9)) "live accessor" (2.0 /. 3.0) (Lru.hit_ratio c);
  let s = Lru.stats c in
  Alcotest.(check (float 1e-9)) "accessor agrees with stats"
    (Lru.ratio_of ~hits:s.Lru.hits ~misses:s.Lru.misses)
    (Lru.hit_ratio c)

(* --- admission decision ------------------------------------------------- *)

let admission =
  Alcotest.testable
    (fun ppf -> function
      | Service.Admit -> Format.fprintf ppf "Admit"
      | Service.Queue -> Format.fprintf ppf "Queue"
      | Service.Reject r -> Format.fprintf ppf "Reject %s" r)
    (fun a b ->
      match (a, b) with
      | Service.Admit, Service.Admit | Service.Queue, Service.Queue -> true
      | Service.Reject _, Service.Reject _ -> true
      | _ -> false)

let test_admission_decision () =
  let c = { Service.default_config with Service.admission_budget = 100; max_queue = 2 } in
  let check name want ~est ~inflight ~waiting =
    Alcotest.check admission name want
      (Service.admission_decision c ~est_cost:est ~in_flight:inflight
         ~waiting)
  in
  check "fits" Service.Admit ~est:40.0 ~inflight:50.0 ~waiting:0;
  check "exact fit" Service.Admit ~est:50.0 ~inflight:50.0 ~waiting:0;
  check "queue while occupied" Service.Queue ~est:60.0 ~inflight:50.0 ~waiting:0;
  check "oversized rejected" (Service.Reject "") ~est:101.0 ~inflight:0.0
    ~waiting:0;
  check "full queue rejected" (Service.Reject "") ~est:60.0 ~inflight:50.0
    ~waiting:2;
  let unlimited = { c with Service.admission_budget = 0 } in
  Alcotest.check admission "unlimited admits anything" Service.Admit
    (Service.admission_decision unlimited ~est_cost:1e12 ~in_flight:1e12
       ~waiting:1000)

let test_admission_oversized_end_to_end () =
  let config =
    { Service.default_config with Service.admission_budget = 1; max_queue = 0 }
  in
  with_server ~config (fun t ->
      match
        Service.query t ~view:S.Queries.fragment_text ~strategy:"unified"
          ~reduce:false
      with
      | Protocol.Rejected reason ->
          Alcotest.(check bool) "reason names the budget" true
            (String.length reason > 0)
      | r -> Alcotest.failf "expected rejection, got %s" (Protocol.reply_name r));
  (* the same query with no budget succeeds *)
  with_server (fun t ->
      match
        Service.query t ~view:S.Queries.fragment_text ~strategy:"unified"
          ~reduce:false
      with
      | Protocol.Result _ -> ()
      | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r))

(* Every tier replies with the admission estimate the middleware prices
   on the plans the request runs, and admission compares that figure
   with the budget. *)
let test_estimate_across_tiers () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.5) in
  let view = S.Queries.query1_text in
  let est =
    let p = S.Middleware.prepare_text db view in
    S.Middleware.estimated_cost
      (S.Middleware.plan_streams ~reduce:true p
         (S.Middleware.partition_of ~reduce:true p S.Middleware.Greedy))
  in
  let ask t = Service.query t ~view ~strategy:"greedy" ~reduce:true in
  let serve config f =
    let t = Service.create ~config db in
    Fun.protect ~finally:(fun () -> Service.shutdown t) (fun () -> f t)
  in
  let check name ~plan_hit ~result_hit = function
    | Protocol.Result { tiers; est_cost; _ } ->
        Alcotest.(check (pair bool bool))
          (name ^ ": tiers") (plan_hit, result_hit)
          (tiers.Protocol.plan_hit, tiers.Protocol.result_hit);
        Alcotest.(check (float 0.0)) (name ^ ": est_cost") est est_cost
    | r -> Alcotest.failf "%s: expected a result, got %s" name (Protocol.reply_name r)
  in
  serve Service.default_config (fun t ->
      check "cold miss" ~plan_hit:false ~result_hit:false (ask t);
      check "result hit" ~plan_hit:true ~result_hit:true (ask t));
  serve { Service.default_config with Service.result_capacity = 0 } (fun t ->
      ignore (ask t);
      check "plan hit, result miss" ~plan_hit:true ~result_hit:false (ask t));
  let budget = int_of_float (Float.ceil est) in
  serve
    { Service.default_config with Service.admission_budget = budget - 1 }
    (fun t ->
      match ask t with
      | Protocol.Rejected reason ->
          Alcotest.(check string) "rejection"
            (Printf.sprintf "estimated cost %.0f exceeds the admission budget %d"
               est (budget - 1))
            reason
      | r -> Alcotest.failf "expected rejection, got %s" (Protocol.reply_name r));
  serve { Service.default_config with Service.admission_budget = budget }
    (fun t -> check "admitted" ~plan_hit:false ~result_hit:false (ask t))

(* --- protocol ----------------------------------------------------------- *)

let roundtrip write read v =
  let path = Filename.temp_file "silkroute_proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      write oc v;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match read ic with
          | Some v' -> v'
          | None -> Alcotest.fail "unexpected EOF"))

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Query { view = "view <a/>"; strategy = "edges:3"; reduce = true };
      Protocol.Query { view = String.make 10_000 'x'; strategy = "greedy"; reduce = false };
      Protocol.Invalidate { table = "Supplier"; factor = 4.5 };
      Protocol.Invalidate { table = ""; factor = 1.0 };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Health;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Protocol.request_name r) true
        (roundtrip Protocol.write_request Protocol.read_request r = r))
    reqs;
  let replies =
    [
      Protocol.Result
        {
          xml = "<doc>\xc3\xa9 &amp; bytes</doc>";
          tiers =
            { Protocol.statement_hit = true; plan_hit = false; result_hit = true };
          work = 12345;
          est_cost = 678.25;
        };
      Protocol.Info "stats";
      Protocol.Rejected "too big";
      Protocol.Failed "boom";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Protocol.reply_name r) true
        (roundtrip Protocol.write_reply Protocol.read_reply r = r))
    replies

let test_protocol_malformed () =
  let read_garbage bytes =
    let path = Filename.temp_file "silkroute_proto" ".bin" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Protocol.read_request ic))
  in
  Alcotest.(check bool) "clean EOF is None" true (read_garbage "" = None);
  Alcotest.check_raises "absurd field count"
    (Protocol.Protocol_error "bad frame field count 1094795585") (fun () ->
      ignore (read_garbage "AAAAAAAA"));
  (* count says 2 fields but the stream ends after the first *)
  let truncated =
    let b = Buffer.create 16 in
    Buffer.add_string b "\x00\x00\x00\x02";
    Buffer.add_string b "\x00\x00\x00\x01Q";
    Buffer.contents b
  in
  Alcotest.check_raises "truncated frame"
    (Protocol.Protocol_error "truncated frame (missing field length)")
    (fun () -> ignore (read_garbage truncated));
  (* telemetry requests are bare tags: a frame smuggling extra fields
     after "M" (or "H") must be refused, not silently accepted *)
  let overloaded tag =
    let b = Buffer.create 16 in
    Buffer.add_string b "\x00\x00\x00\x02";
    Buffer.add_string b ("\x00\x00\x00\x01" ^ tag);
    Buffer.add_string b "\x00\x00\x00\x01x";
    Buffer.contents b
  in
  List.iter
    (fun tag ->
      Alcotest.check_raises
        ("oversized telemetry request " ^ tag)
        (Protocol.Protocol_error
           (Printf.sprintf "telemetry request %S takes no fields" tag))
        (fun () -> ignore (read_garbage (overloaded tag))))
    [ "M"; "H" ]

(* --- cache tiers through the server ------------------------------------- *)

let test_tier_progression () =
  with_server (fun t ->
      let q () =
        Service.query t ~view:S.Queries.fragment_text ~strategy:"unified"
          ~reduce:false
      in
      let first = tiers_of (q ()) in
      Alcotest.(check bool) "cold: no tier hits" false
        (first.Protocol.statement_hit || first.Protocol.plan_hit
        || first.Protocol.result_hit);
      let second = tiers_of (q ()) in
      Alcotest.(check bool) "warm: every tier hits" true
        (second.Protocol.statement_hit && second.Protocol.plan_hit
        && second.Protocol.result_hit);
      (* same view, different strategy: statement hits, plan misses *)
      let third =
        tiers_of
          (Service.query t ~view:S.Queries.fragment_text
             ~strategy:"partitioned" ~reduce:false)
      in
      Alcotest.(check bool) "statement survives strategy change" true
        third.Protocol.statement_hit;
      Alcotest.(check bool) "plan is per-strategy" false third.Protocol.plan_hit)

let test_byte_identity_all_plans () =
  (* every point of the fragment view's 2^|E| lattice, cached and
     uncached, against the direct pipeline *)
  let db = Lazy.force db in
  let p = S.Middleware.prepare_text db S.Queries.fragment_text in
  let reference =
    let e =
      S.Middleware.execute p (S.Middleware.partition_of p S.Middleware.Unified)
    in
    S.Middleware.xml_string_of p e
  in
  let masks = S.Partition.all_masks p.S.Middleware.tree in
  Alcotest.(check bool) "whole lattice" true (List.length masks >= 4);
  with_server (fun t ->
      List.iter
        (fun mask ->
          let strategy = "edges:" ^ string_of_int mask in
          let q () =
            xml_of (Service.query t ~view:S.Queries.fragment_text ~strategy ~reduce:false)
          in
          let uncached = q () in
          let cached = q () in
          Alcotest.(check string)
            (Printf.sprintf "mask %d uncached" mask)
            reference uncached;
          Alcotest.(check string)
            (Printf.sprintf "mask %d cached" mask)
            reference cached)
        masks;
      (* the named strategies resolve into the same lattice *)
      List.iter
        (fun strategy ->
          List.iter
            (fun reduce ->
              Alcotest.(check string)
                (strategy ^ if reduce then "+reduce" else "")
                reference
                (xml_of
                   (Service.query t ~view:S.Queries.fragment_text ~strategy
                      ~reduce)))
            [ false; true ])
        [ "unified"; "partitioned"; "greedy" ])

let test_epoch_invalidation () =
  with_server (fun t ->
      let q () =
        Service.query t ~view:S.Queries.fragment_text ~strategy:"greedy"
          ~reduce:false
      in
      let before = xml_of (q ()) in
      Alcotest.(check bool) "warm before invalidation" true
        (tiers_of (q ())).Protocol.result_hit;
      Alcotest.(check int) "epoch 0" 0 (Service.stats_epoch t);
      Service.invalidate ~skew:("Supplier", 8.0) t;
      Alcotest.(check int) "epoch bumped" 1 (Service.stats_epoch t);
      let _, plans, results = Service.tier_stats t in
      Alcotest.(check int) "plan tier flushed" 0 plans.Lru.entries;
      Alcotest.(check int) "result tier flushed" 0 results.Lru.entries;
      let after = q () in
      Alcotest.(check bool) "stale entry not served" false
        (tiers_of after).Protocol.result_hit;
      (* the catalog changed but the data did not: bytes still match *)
      Alcotest.(check string) "output unchanged" before (xml_of after);
      (* statement tier does not depend on statistics *)
      let stmts, _, _ = Service.tier_stats t in
      Alcotest.(check bool) "statement tier survives" true
        (stmts.Lru.entries > 0))

let test_bad_inputs_fail_cleanly () =
  with_server (fun t ->
      (match Service.query t ~view:"not rxl at all" ~strategy:"unified" ~reduce:false with
      | Protocol.Failed _ -> ()
      | r -> Alcotest.failf "expected failure, got %s" (Protocol.reply_name r));
      (match Service.query t ~view:S.Queries.fragment_text ~strategy:"nope" ~reduce:false with
      | Protocol.Failed msg ->
          Alcotest.(check bool) "names the strategy" true
            (String.length msg > 0)
      | r -> Alcotest.failf "expected failure, got %s" (Protocol.reply_name r));
      (* a failed query must not poison the server *)
      match Service.query t ~view:S.Queries.fragment_text ~strategy:"unified" ~reduce:false with
      | Protocol.Result _ -> ()
      | r -> Alcotest.failf "server poisoned: %s" (Protocol.reply_name r))

(* A skew factor from the wire must be finite, positive and small
   enough that the scaled row count fits an int.  NaN, infinity and
   1e300 used to pass the [factor <= 0] check, shrink the table to one
   row and bump the epoch. *)
let test_invalidate_rejects_non_finite () =
  with_server (fun t ->
      List.iter
        (fun factor ->
          (match
             Service.handle t
               (Protocol.Invalidate { table = "Supplier"; factor })
           with
          | Protocol.Failed _ -> ()
          | r ->
              Alcotest.failf "factor %g: expected Failed, got %s" factor
                (Protocol.reply_name r));
          Alcotest.(check int)
            (Printf.sprintf "factor %g: epoch unchanged" factor)
            0 (Service.stats_epoch t))
        [ Float.nan; Float.infinity; 1e300 ])

(* One plan per request: the plan tier asks the middleware's planner
   stage, so a greedy reduced request runs the plan [partition_of
   ~reduce:true] names.  At seed 42, scale 1, q2's reduced and
   unreduced greedy plans differ. *)
let test_greedy_plan_is_the_middleware_plan () =
  let db = Tpch.Gen.generate (Tpch.Gen.config ~seed:42L 1.0) in
  let p = S.Middleware.prepare_text db S.Queries.query2_text in
  let plan reduce = S.Middleware.partition_of ~reduce p S.Middleware.Greedy in
  Alcotest.(check bool) "the two reductions plan differently here" true
    (S.Partition.to_mask (plan true) <> S.Partition.to_mask (plan false));
  let expected =
    (S.Middleware.execute ~reduce:true p (plan true)).S.Middleware.work
  in
  let t = Service.create db in
  Fun.protect ~finally:(fun () -> Service.shutdown t) @@ fun () ->
  match
    Service.query t ~view:S.Queries.query2_text ~strategy:"greedy"
      ~reduce:true
  with
  | Protocol.Result { work; _ } ->
      Alcotest.(check int) "work of the middleware's reduced plan" expected
        work
  | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r)

let test_shutdown_idempotent () =
  let t = Service.create (Lazy.force db) in
  Service.shutdown t;
  Service.shutdown t;
  match
    Service.query t ~view:S.Queries.fragment_text ~strategy:"unified"
      ~reduce:false
  with
  | Protocol.Failed _ -> ()
  | r -> Alcotest.failf "expected failure after shutdown, got %s"
           (Protocol.reply_name r)

(* --- telemetry ----------------------------------------------------------- *)

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec search i = i + n <= m && (String.sub msg i n = needle || search (i + 1)) in
  search 0

let test_telemetry_endpoints () =
  let slow_log = Filename.temp_file "silkroute_slow" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove slow_log) @@ fun () ->
  let config =
    {
      Service.default_config with
      (* any real query takes longer than a nanosecond: the slow path
         and its log fire on the very first request *)
      Service.slow_ms = 1e-6;
      slow_log = Some slow_log;
      slo = Some Obs.Slo.default_config;
    }
  in
  with_server ~config (fun t ->
      ignore
        (Service.query t ~view:S.Queries.fragment_text ~strategy:"unified"
           ~reduce:false);
      (match Service.handle t Protocol.Metrics with
      | Protocol.Info text ->
          let parsed = Obs.Expose.parse text in
          let get name =
            match Obs.Expose.find parsed name with
            | Some v -> v
            | None -> Alcotest.failf "exposition is missing %s" name
          in
          Alcotest.(check (float 0.0)) "one query served" 1.0
            (get "silkroute_server_queries_total");
          Alcotest.(check bool) "uptime advances" true
            (get "silkroute_uptime_seconds" >= 0.0);
          Alcotest.(check bool) "tier gauge present" true
            (Obs.Expose.find parsed
               "silkroute_cache_hit_ratio{tier=\"statement\"}"
            <> None);
          Alcotest.(check (float 0.0)) "slow query logged" 1.0
            (get "silkroute_server_slow_queries_total");
          Alcotest.(check (float 0.0)) "slow record accepted" 1.0
            (get "silkroute_slowlog_written_total");
          Alcotest.(check (float 0.0)) "no slow-log drops" 0.0
            (get "silkroute_slowlog_dropped_total");
          Alcotest.(check (float 0.0)) "slo saw the request" 1.0
            (get "silkroute_slo_samples");
          (* families carry their TYPE declarations *)
          Alcotest.(check (option string)) "counter family typed"
            (Some "counter")
            (List.assoc_opt "silkroute_server_queries_total"
               parsed.Obs.Expose.types)
      | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r));
      match Service.handle t Protocol.Health with
      | Protocol.Info line ->
          Alcotest.(check bool) "health says ok" true
            (contains line "status=ok");
          Alcotest.(check bool) "health counts requests" true
            (contains line "requests=")
      | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r))

(* Every request's wall time and stage clock feed the scrape, telemetry
   off and sampled out: N uncached queries give N request latencies and
   N service-stage samples, each reached stage has ordered quantiles,
   and the stages add up to no more than the requests' time. *)
let test_untraced_scrape_has_stage_latencies () =
  let config =
    {
      Service.default_config with
      Service.trace_sample = 0;
      statement_capacity = 0;
      plan_capacity = 0;
      result_capacity = 0;
    }
  in
  let n = 6 in
  Obs.Control.with_enabled false (fun () ->
      with_server ~config (fun t ->
          for i = 1 to n do
            ignore
              (xml_of
                 (Service.query t ~view:S.Queries.fragment_text
                    ~strategy:(if i mod 2 = 0 then "greedy" else "partitioned")
                    ~reduce:(i mod 3 = 0)))
          done;
          match Service.handle t Protocol.Metrics with
          | Protocol.Info text ->
              let parsed = Obs.Expose.parse text in
              let get key =
                match Obs.Expose.find parsed key with
                | Some v -> v
                | None -> Alcotest.failf "exposition is missing %s" key
              in
              Alcotest.(check (float 0.0)) "one request latency per query"
                (float_of_int n) (get "silkroute_server_request_ms_count");
              let stage suffix st =
                Printf.sprintf "silkroute_stage_ms%s{stage=%S}" suffix
                  (Obs.Stage.name st)
              in
              Alcotest.(check (float 0.0)) "one service sample per query"
                (float_of_int n)
                (get (stage "_count" Obs.Stage.Service));
              let stage_sum =
                List.fold_left
                  (fun acc st ->
                    let count = get (stage "_count" st) in
                    if count > 0.0 then begin
                      let q p =
                        get
                          (Printf.sprintf
                             "silkroute_stage_ms{stage=%S,quantile=%S}"
                             (Obs.Stage.name st) p)
                      in
                      if not (q "0.5" <= q "0.9" && q "0.9" <= q "0.99") then
                        Alcotest.failf "stage %s: quantiles out of order"
                          (Obs.Stage.name st)
                    end;
                    acc +. get (stage "_sum" st))
                  0.0 Obs.Stage.all
              in
              Alcotest.(check bool) "the executor stage was reached" true
                (get (stage "_count" Obs.Stage.Executor) > 0.0);
              let request_sum = get "silkroute_server_request_ms_sum" in
              if stage_sum > request_sum *. (1.0 +. 1e-9) then
                Alcotest.failf "stages sum to %g ms, requests to %g ms"
                  stage_sum request_sum
          | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r)))

let request_spans () =
  List.filter
    (fun (s : Obs.Span.t) -> s.Obs.Span.name = "server.request")
    (Obs.Span.spans ())

let test_sampled_out_still_answers () =
  (* head sampling gates spans only: a sampled-out request must return
     the same bytes and still count in the scheduler counters *)
  Obs.Control.with_enabled true (fun () ->
      Fun.protect ~finally:Obs.Span.reset (fun () ->
          Obs.Span.reset ();
          let reference =
            with_server (fun t ->
                xml_of
                  (Service.query t ~view:S.Queries.fragment_text
                     ~strategy:"unified" ~reduce:false))
          in
          Alcotest.(check bool) "traced control records a span" true
            (request_spans () <> []);
          Obs.Span.reset ();
          let config = { Service.default_config with Service.trace_sample = 0 } in
          with_server ~config (fun t ->
              let xml =
                xml_of
                  (Service.query t ~view:S.Queries.fragment_text
                     ~strategy:"unified" ~reduce:false)
              in
              Alcotest.(check string) "same bytes" reference xml;
              Alcotest.(check int) "zero request spans" 0
                (List.length (request_spans ()));
              Alcotest.(check int) "query still counted" 1
                (Service.counters t).Service.queries)))

(* A sampled-out slow request still explains itself: its record holds
   one non-negative entry per stage, in stage-list order, from the
   request's own clock — the pipeline stages sum to at most the
   request's wall time, and a cache miss spends time in them. *)
let test_sampled_out_slow_record_has_stages () =
  let slow_log = Filename.temp_file "silkroute_slow" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove slow_log) @@ fun () ->
  let config =
    {
      Service.default_config with
      Service.trace_sample = 0;
      slow_ms = 1e-6;
      slow_log = Some slow_log;
    }
  in
  with_server ~config (fun t ->
      ignore
        (xml_of
           (Service.query t ~view:S.Queries.query1_text ~strategy:"greedy"
              ~reduce:true)));
  let line = In_channel.with_open_bin slow_log In_channel.input_all in
  let record = Obs.Json.parse (String.trim line) in
  let num = function
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int n) -> float_of_int n
    | _ -> Alcotest.fail "not a number"
  in
  let ms = num (Obs.Json.member "ms" record) in
  let stages =
    match Obs.Json.member "stages" record with
    | Some (Obs.Json.List l) ->
        List.map
          (fun e ->
            match Obs.Json.member "name" e with
            | Some (Obs.Json.String name) -> (name, num (Obs.Json.member "ms" e))
            | _ -> Alcotest.fail "stage entry without a name")
          l
    | _ -> Alcotest.fail "no stages list"
  in
  Alcotest.(check (list string)) "one entry per stage"
    (List.map Obs.Stage.name Obs.Stage.all)
    (List.map fst stages);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " non-negative") true (v >= 0.0))
    stages;
  let pipeline =
    List.fold_left
      (fun acc (name, v) -> if name = "service" then acc else acc +. v)
      0.0 stages
  in
  Alcotest.(check bool) "pipeline stages ran" true (pipeline > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "pipeline %.6f ms <= request %.6f ms" pipeline ms)
    true
    (pipeline <= ms +. 1e-6)

(* --- workload driver ----------------------------------------------------- *)

let small_mix =
  {
    Workload.default_config with
    Workload.clients = 2;
    requests_per_client = 6;
    invalidate_every = 4;
  }

let test_workload_script_deterministic () =
  let views = Workload.standard_views ~verify:false (Lazy.force db) in
  let a = Workload.script ~views small_mix in
  let b = Workload.script ~views small_mix in
  Alcotest.(check bool) "same script" true (a = b);
  let c =
    Workload.script ~views { small_mix with Workload.seed = small_mix.Workload.seed + 1 }
  in
  Alcotest.(check bool) "seed changes the script" true (a <> c);
  (* client 0 request 4 is the scripted invalidation *)
  (match a.(0).(4) with
  | Protocol.Invalidate _ -> ()
  | _ -> Alcotest.fail "expected a scripted invalidation");
  Alcotest.(check int) "clients" 2 (Array.length a);
  Alcotest.(check int) "requests" 6 (Array.length a.(0))

let test_workload_direct_identity_and_warmth () =
  let views = Workload.standard_views (Lazy.force db) in
  with_server (fun t ->
      let first = Workload.run_direct t ~views small_mix in
      Alcotest.(check (list string)) "no mismatches" [] first.Workload.mismatches;
      Alcotest.(check int) "no failures" 0 first.Workload.failed;
      Alcotest.(check bool) "queries ran" true (first.Workload.results > 0);
      Alcotest.(check int) "scripted invalidation arrived" 1
        first.Workload.infos);
  (* warmth needs a mix without scripted invalidations: pass 2 then
     replays entirely from the result tier *)
  let mix = { small_mix with Workload.invalidate_every = 0 } in
  with_server (fun t ->
      let cold = Workload.run_direct t ~views mix in
      let warm = Workload.run_direct t ~views mix in
      Alcotest.(check (list string)) "cold identical" [] cold.Workload.mismatches;
      Alcotest.(check (list string)) "warm identical" [] warm.Workload.mismatches;
      Alcotest.(check bool) "cold executed work" true (cold.Workload.work > 0);
      Alcotest.(check int) "warm replays from the result tier"
        warm.Workload.results warm.Workload.result_hits;
      Alcotest.(check bool) "warm executes strictly less" true
        (warm.Workload.work < cold.Workload.work))

let test_workload_threaded_identity () =
  let views = Workload.standard_views (Lazy.force db) in
  let config = { Service.default_config with Service.domains = 2 } in
  with_server ~config (fun t ->
      let tally = Workload.run_direct ~threads:true t ~views small_mix in
      Alcotest.(check (list string)) "identical under threads" []
        tally.Workload.mismatches;
      Alcotest.(check int) "no failures" 0 tally.Workload.failed)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "silkroute_test_%s_%d.sock" name (Unix.getpid ()))

let test_workload_socket_roundtrip () =
  let views = Workload.standard_views (Lazy.force db) in
  let socket = temp_socket "roundtrip" in
  let t = Service.create (Lazy.force db) in
  let listener = Service.listen ~socket in
  let server_thread = Thread.create (fun () -> Service.serve_unix t listener) () in
  let tally = Workload.run_socket ~socket ~views small_mix in
  (match Workload.request ~socket Protocol.Stats with
  | Some (Protocol.Info report) ->
      Alcotest.(check bool) "stats report mentions the tiers" true
        (String.length report > 0)
  | _ -> Alcotest.fail "no stats reply");
  (match Workload.request ~socket Protocol.Shutdown with
  | Some (Protocol.Info _) -> ()
  | _ -> Alcotest.fail "no shutdown acknowledgement");
  Thread.join server_thread;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
  Alcotest.(check (list string)) "identical over the wire" []
    tally.Workload.mismatches;
  Alcotest.(check int) "no failures" 0 tally.Workload.failed;
  Alcotest.(check bool) "queries answered" true (tally.Workload.results > 0)

(* [listen] replaces a socket a dead server left, and nothing else: a
   regular file at the path raises and keeps its bytes, and so does a
   live server's socket. *)
let test_listen_keeps_other_files () =
  let path = temp_socket "occupied" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "precious data");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Service.listen ~socket:path with
      | _ -> Alcotest.fail "listen replaced a regular file"
      | exception Invalid_argument _ -> ());
      Alcotest.(check string) "file untouched" "precious data"
        (In_channel.with_open_bin path In_channel.input_all));
  (* a stale socket: bound, then abandoned without removing the file *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  let t = Service.create (Lazy.force db) in
  let listener = Service.listen ~socket:path in
  let server = Thread.create (fun () -> Service.serve_unix t listener) () in
  (match Service.listen ~socket:path with
  | _ -> Alcotest.fail "listen took over a live server's socket"
  | exception Invalid_argument _ -> ());
  ignore (Workload.request ~socket:path Protocol.Shutdown);
  Thread.join server;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

let test_run_socket_without_server () =
  let socket = temp_socket "absent" in
  let views = Workload.standard_views ~verify:false (Lazy.force db) in
  match Workload.run_socket ~verify:false ~socket ~views small_mix with
  | _ -> Alcotest.fail "a replay with no server returned a tally"
  | exception Unix.Unix_error (_, "connect", path) ->
      Alcotest.(check string) "names the path" socket path

(* A count below its range fails where it is owned, naming it — not
   deep inside, as [Array.init] did for a negative request count, and
   not by silently doing nothing, as zero clients did. *)
let test_bad_counts_rejected () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
        let n = String.length what in
        let rec named i =
          i + n <= String.length msg && (String.sub msg i n = what || named (i + 1))
        in
        Alcotest.(check bool) (what ^ " named: " ^ msg) true (named 0)
  in
  let db = Lazy.force db in
  let views = Workload.standard_views ~verify:false db in
  rejects "clients" (fun () ->
      Workload.script ~views { small_mix with Workload.clients = 0 });
  rejects "requests" (fun () ->
      Workload.script ~views { small_mix with Workload.requests_per_client = -1 });
  rejects "result_capacity" (fun () ->
      Service.create
        ~config:{ Service.default_config with Service.result_capacity = -1 }
        db);
  rejects "budget" (fun () -> R.Backend.create ~budget:(-5) db);
  rejects "retries" (fun () -> R.Backend.create ~retries:(-1) db)

(* --- latent-bug regressions ---------------------------------------------- *)

let test_tagger_empty_sfi_error () =
  let db = Lazy.force db in
  let p = S.Middleware.prepare_text db S.Queries.fragment_text in
  let tree = p.S.Middleware.tree in
  let broken =
    {
      tree with
      S.View_tree.nodes =
        Array.map
          (fun (n : S.View_tree.node) ->
            if n.S.View_tree.id = 1 then { n with S.View_tree.sfi = [] } else n)
          tree.S.View_tree.nodes;
    }
  in
  let sink, _ = S.Tagger.document_sink broken in
  match S.Tagger.tag broken [] sink with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("descriptive message: " ^ msg)
        true
        (contains msg "empty Skolem-function index" && contains msg "node 1")

let test_planner_missing_edge_error () =
  let db = Lazy.force db in
  let p = S.Middleware.prepare_text db S.Queries.fragment_text in
  let bogus =
    { S.Planner.mandatory = [ (97, 98) ]; optional = []; requests = 0; cache_hits = 0 }
  in
  (match S.Planner.plans_of p.S.Middleware.tree bogus with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("plans_of names the edge: " ^ msg) true
        (contains msg "97-98" && contains msg "not an edge"));
  match S.Planner.best_plan p.S.Middleware.tree bogus with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("best_plan names the edge: " ^ msg) true
        (contains msg "97-98" && contains msg "not an edge")

let test_clock_monotonic_watermark () =
  (* a backwards-stepping source must never make now_ns decrease *)
  let steps = ref [ 100L; 50L; 150L; 149L; 200L ] in
  Obs.Clock.set_source (fun () ->
      match !steps with
      | [] -> 300L
      | t :: rest ->
          steps := rest;
          t);
  Fun.protect ~finally:Obs.Clock.use_default (fun () ->
      let observed = List.init 5 (fun _ -> Obs.Clock.now_ns ()) in
      Alcotest.(check (list int64)) "clamped to the watermark"
        [ 100L; 100L; 150L; 150L; 200L ] observed);
  (* the default source is the monotonic clock: strictly non-decreasing *)
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "monotonic default" true (Int64.compare a b <= 0)

let test_clock_set_source_resets_watermark () =
  Obs.Clock.set_source (fun () -> 1_000_000L);
  Fun.protect ~finally:Obs.Clock.use_default (fun () ->
      Alcotest.(check int64) "high fake time" 1_000_000L (Obs.Clock.now_ns ()));
  (* after restoring the default, a fresh watermark must not pin time to
     the fake source's high-water mark *)
  Obs.Clock.set_source (fun () -> 5L);
  Fun.protect ~finally:Obs.Clock.use_default (fun () ->
      Alcotest.(check int64) "watermark reset on set_source" 5L
        (Obs.Clock.now_ns ()))

let suite =
  [
    Alcotest.test_case "lru: hit/miss/eviction" `Quick test_lru_hit_miss_eviction;
    Alcotest.test_case "lru: weights" `Quick test_lru_weights;
    Alcotest.test_case "lru: clear + disabled" `Quick test_lru_clear_and_disabled;
    Alcotest.test_case "lru: peek" `Quick test_lru_peek_counts_nothing;
    Alcotest.test_case "lru: hit ratio" `Quick test_lru_hit_ratio;
    Alcotest.test_case "admission: decision table" `Quick test_admission_decision;
    Alcotest.test_case "admission: oversized rejected" `Quick
      test_admission_oversized_end_to_end;
    Alcotest.test_case "protocol: roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: malformed frames" `Quick test_protocol_malformed;
    Alcotest.test_case "tiers: cold then warm" `Quick test_tier_progression;
    Alcotest.test_case "byte identity: whole lattice, cached + uncached" `Quick
      test_byte_identity_all_plans;
    Alcotest.test_case "invalidation: stats epoch" `Quick test_epoch_invalidation;
    Alcotest.test_case "bad inputs fail cleanly" `Quick test_bad_inputs_fail_cleanly;
    Alcotest.test_case "invalidate rejects nan, inf, overflow" `Quick
      test_invalidate_rejects_non_finite;
    Alcotest.test_case "greedy plan is the middleware's plan" `Quick
      test_greedy_plan_is_the_middleware_plan;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "telemetry: metrics + health endpoints" `Quick
      test_telemetry_endpoints;
    Alcotest.test_case "telemetry: untraced scrape has stage latencies" `Quick
      test_untraced_scrape_has_stage_latencies;
    Alcotest.test_case "telemetry: sampled-out slow record has every stage"
      `Quick test_sampled_out_slow_record_has_stages;
    Alcotest.test_case "telemetry: sampled-out request still answers" `Quick
      test_sampled_out_still_answers;
    Alcotest.test_case "workload: deterministic script" `Quick
      test_workload_script_deterministic;
    Alcotest.test_case "workload: identity + warmth" `Quick
      test_workload_direct_identity_and_warmth;
    Alcotest.test_case "workload: threaded clients" `Quick
      test_workload_threaded_identity;
    Alcotest.test_case "workload: socket roundtrip" `Quick
      test_workload_socket_roundtrip;
    Alcotest.test_case "regression: listen keeps non-socket files" `Quick
      test_listen_keeps_other_files;
    Alcotest.test_case "regression: socket replay without a server raises"
      `Quick test_run_socket_without_server;
    Alcotest.test_case "regression: bad counts rejected where owned" `Quick
      test_bad_counts_rejected;
    Alcotest.test_case "regression: tagger empty SFI" `Quick
      test_tagger_empty_sfi_error;
    Alcotest.test_case "regression: planner missing edge" `Quick
      test_planner_missing_edge_error;
    Alcotest.test_case "regression: clock watermark" `Quick
      test_clock_monotonic_watermark;
    Alcotest.test_case "regression: clock source reset" `Quick
      test_clock_set_source_resets_watermark;
    Alcotest.test_case "admission: one estimate across tiers" `Quick
      test_estimate_across_tiers;
  ]
