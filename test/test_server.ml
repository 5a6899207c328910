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

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec search i = i + n <= m && (String.sub msg i n = needle || search (i + 1)) in
  search 0

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
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "entries" 3 s.Lru.entries;
  (* MRU order a, d, c: the next two insertions evict c, then d *)
  Lru.add c "e" 5;
  Alcotest.(check (option int)) "MRU order: c evicted first" None (Lru.peek c "c");
  Lru.add c "f" 6;
  Alcotest.(check (option int)) "MRU order: d evicted next" None (Lru.peek c "d");
  Alcotest.(check (option int)) "MRU order: a kept" (Some 1) (Lru.peek c "a")

let test_lru_weights () =
  let c = Lru.create ~name:"t" ~capacity:100 () in
  Lru.add ~weight:60 c "a" "a";
  Lru.add ~weight:30 c "b" "b";
  (* 60 + 30 + 40 > 100: a (LRU) must go *)
  Lru.add ~weight:40 c "c" "c";
  Alcotest.(check (option string)) "a evicted" None (Lru.find c "a");
  Alcotest.(check int) "weight" 70 (Lru.stats c).Lru.weight;
  (* an entry heavier than the whole budget is not admitted and does
     not disturb the cache *)
  Lru.add ~weight:101 c "huge" "huge";
  Alcotest.(check (option string)) "huge dropped" None (Lru.find c "huge");
  Alcotest.(check int) "cache untouched" 2 (Lru.stats c).Lru.entries;
  (* replacing an entry updates the weight account *)
  Lru.add ~weight:10 c "b" "b2";
  Alcotest.(check int) "replace adjusts weight" 50 (Lru.stats c).Lru.weight

let test_lru_clear_and_disabled () =
  let c = Lru.create ~name:"t" ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.stats c).Lru.entries;
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
  let s = Lru.stats c in
  Alcotest.(check (float 1e-9)) "live counters" (2.0 /. 3.0)
    (Lru.ratio_of ~hits:s.Lru.hits ~misses:s.Lru.misses)

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
    (fun t -> check "admitted" ~plan_hit:false ~result_hit:false (ask t));
  (* a plan over the budget is rejected even when a cheaper plan of its
     view has already published the view's one document *)
  let cost strategy =
    let p = S.Middleware.prepare_text db view in
    S.Middleware.estimated_cost
      (S.Middleware.plan_streams ~reduce:true p
         (S.Middleware.partition_of ~reduce:true p
            (S.Middleware.strategy_of_string strategy)))
  in
  let cheap = int_of_float (Float.ceil (cost "greedy")) in
  let dear = cost "unified" in
  Alcotest.(check bool) "unified costs more than greedy's budget" true
    (dear > float_of_int cheap);
  serve { Service.default_config with Service.admission_budget = cheap }
    (fun t ->
      check "cheap plan warms the document" ~plan_hit:false ~result_hit:false
        (ask t);
      match Service.query t ~view ~strategy:"unified" ~reduce:true with
      | Protocol.Rejected reason ->
          Alcotest.(check string) "over-budget plan rejected"
            (Printf.sprintf "estimated cost %.0f exceeds the admission budget %d"
               dear cheap)
            reason
      | r -> Alcotest.failf "expected rejection, got %s" (Protocol.reply_name r))

(* Two sessions missing one plan key at once choose its partition once:
   the second waits for the first under the plan lock and reuses its
   entry.  The sessions run on two domains, released together, so both
   miss the tier's first probe. *)
let test_concurrent_plan_miss () =
  with_server
    ~config:{ Service.default_config with Service.result_capacity = 0 }
    (fun t ->
      let view = S.Queries.query1_text in
      (* the statement tier holds the view before the race *)
      ignore (Service.query t ~view ~strategy:"unified" ~reduce:false);
      let ready = Atomic.make 0 in
      let ask () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        Service.query t ~view ~strategy:"greedy" ~reduce:false
      in
      let other = Domain.spawn ask in
      let mine = ask () in
      let replies = [ mine; Domain.join other ] in
      let misses =
        List.length
          (List.filter (fun r -> not (tiers_of r).Protocol.plan_hit) replies)
      in
      Alcotest.(check int) "one plan miss" 1 misses;
      Alcotest.(check string) "same document" (xml_of mine)
        (xml_of (List.nth replies 1)))

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
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d" i) true
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

(* The writer holds the reader's field limit: a reply one byte over it
   raises before its first byte, so the channel stays empty and the
   session can answer [Failed] on it instead. *)
let test_protocol_field_cap () =
  let reply xml =
    Protocol.Result
      {
        xml;
        tiers = { Protocol.statement_hit = false; plan_hit = false; result_hit = false };
        work = 7;
        est_cost = 1.5;
      }
  in
  let over = Protocol.max_field_bytes + 1 in
  let path = Filename.temp_file "silkroute_proto" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Alcotest.check_raises "a field one byte over the cap"
        (Protocol.Protocol_error
           (Printf.sprintf "field of %d bytes exceeds the %d-byte limit" over
              Protocol.max_field_bytes))
        (fun () -> Protocol.write_reply oc (reply (String.make over 'x')));
      close_out oc;
      let ic = open_in_bin path in
      let length = in_channel_length ic in
      close_in ic;
      Alcotest.(check int) "nothing written" 0 length);
  let ordinary = reply "<doc/>" in
  Alcotest.(check bool) "an ordinary reply round-trips" true
    (roundtrip Protocol.write_reply Protocol.read_reply ordinary = ordinary)

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

(* The fragment view reads no nullable column and the generated database
   meets its constraints, so every plan publishes one document: after
   the first request, every mask and both reductions are result hits
   with work 0.  Every reply carries the estimate of its own plans. *)
let test_byte_identity_all_plans () =
  let db = Lazy.force db in
  let view = S.Queries.fragment_text in
  let p = S.Middleware.prepare_text db view in
  let reference =
    let e =
      S.Middleware.execute p (S.Middleware.partition_of p S.Middleware.Unified)
    in
    S.Middleware.xml_string_of p e
  in
  let estimate strategy reduce =
    S.Middleware.estimated_cost
      (S.Middleware.plan_streams ~reduce p
         (S.Middleware.partition_of ~reduce p
            (S.Middleware.strategy_of_string strategy)))
  in
  let masks = S.Partition.all_masks p.S.Middleware.tree in
  Alcotest.(check bool) "whole lattice" true (List.length masks >= 4);
  with_server (fun t ->
      let first = ref true in
      let ask strategy reduce =
        let name = strategy ^ if reduce then "+reduce" else "" in
        match Service.query t ~view ~strategy ~reduce with
        | Protocol.Result { xml; tiers; work; est_cost } ->
            Alcotest.(check string) (name ^ ": bytes") reference xml;
            Alcotest.(check (float 0.0))
              (name ^ ": est_cost") (estimate strategy reduce) est_cost;
            if not !first then begin
              Alcotest.(check bool)
                (name ^ ": result hit") true tiers.Protocol.result_hit;
              Alcotest.(check int) (name ^ ": work") 0 work
            end;
            first := false
        | r -> Alcotest.failf "%s: expected a result, got %s" name (Protocol.reply_name r)
      in
      (* each point twice: a plan miss, then a plan hit *)
      List.iter
        (fun strategy ->
          List.iter
            (fun reduce ->
              ask strategy reduce;
              ask strategy reduce)
            [ false; true ])
        (List.map (fun mask -> "edges:" ^ string_of_int mask) masks
        @ [ "unified"; "partitioned"; "greedy" ]))

(* Where plans of one view publish different bytes, each strategy is
   served its own: the result tier keeps one document per plan.  Every
   point of the view's lattice and the named strategies, reduced or not,
   each asked twice, against its own direct run. *)
let check_served_per_plan db view =
  let p = S.Middleware.prepare_text db view in
  let points =
    List.concat_map
      (fun strategy ->
        List.map
          (fun reduce ->
            let direct =
              S.Middleware.xml_string_of p
                (S.Middleware.execute ~reduce p
                   (S.Middleware.partition_of ~reduce p
                      (S.Middleware.strategy_of_string strategy)))
            in
            (strategy, reduce, direct))
          [ false; true ])
      (List.map
         (fun mask -> "edges:" ^ string_of_int mask)
         (S.Partition.all_masks p.S.Middleware.tree)
      @ [ "unified"; "partitioned"; "greedy" ])
  in
  Alcotest.(check bool) "plans publish different bytes here" true
    (List.length (List.sort_uniq compare (List.map (fun (_, _, x) -> x) points))
    > 1);
  let t = Service.create db in
  Fun.protect ~finally:(fun () -> Service.shutdown t) @@ fun () ->
  for round = 1 to 2 do
    List.iter
      (fun (strategy, reduce, direct) ->
        Alcotest.(check string)
          (Printf.sprintf "%s%s, round %d" strategy
             (if reduce then "+reduce" else "")
             round)
          direct
          (xml_of (Service.query t ~view ~strategy ~reduce)))
      points
  done

let database schema tables =
  let db = R.Source_desc.load_database schema in
  List.iter (fun (name, csv) -> ignore (R.Csv.load db name csv)) tables;
  db

(* The NULL probe: [$q.k = $p.k] folds into one variable that the
   unified plan correlates NULL-safe and a partitioned child query
   matches with SQL's [=]. *)
let test_nullable_view_served_per_plan () =
  let db =
    database
      "table P {\n  id int key\n  name string null\n  k int null\n}\n\
       table C {\n  cid int key\n  pid int null -> P.id\n  v string null\n\
      \  w int null\n}\n"
      [
        ("P", "id,name,k\n1,a,10\n2,,\n3,,10\n4,d,\n");
        ("C", "cid,pid,v,w\n1,1,x,10\n2,2,,\n3,3,y,\n");
      ]
  in
  check_served_per_plan db
    {|view root { from P $p construct <p>$p.id
        { from P $q where $q.k = $p.k construct <q>$q.id $q.name</q> }
        { from C $c where $c.w = $p.k construct <c>$c.cid</c> } </p> }|}

(* A declared foreign key that dangles: reduction inlines the parent
   through an inner join and loses the child whose key has no target. *)
let test_dangling_fk_served_per_plan () =
  let db =
    database
      "table P {\n  id int key\n  name string\n}\n\
       table C {\n  cid int key\n  pid int -> P.id\n  v string\n}\n"
      [
        ("P", "id,name\n1,a\n2,b\n");
        ("C", "cid,pid,v\n1,1,x\n2,2,y\n3,9,z\n");
      ]
  in
  Alcotest.(check int) "one dangling reference" 1
    (List.length (R.Database.check_integrity db));
  check_served_per_plan db
    {|view root { from C $c construct <c>$c.cid
        { from P $p where $p.id = $c.pid construct <p>$p.name</p> } </c> }|}

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
      (match
         Service.handle t (Protocol.Invalidate { table = "Supplier"; factor = 8.0 })
       with
      | Protocol.Info text ->
          Alcotest.(check string) "the reply names the installed epochs"
            "invalidated; data epoch now 1, stats epoch now 1" text
      | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r));
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

(* A plan depends on the view and the catalog, never on the rows: an
   invalidation that skews no table flushes the documents and keeps the
   plans, and each request after it is a plan hit and a result miss whose
   bytes and estimate are those of a fresh planning.  A skew flushes the
   plans too. *)
let test_plain_invalidation_keeps_plans () =
  let db = Lazy.force db in
  let view = S.Queries.query1_text in
  let requests =
    [ ("greedy", true); ("greedy", false); ("edges:37", true); ("edges:37", false) ]
  in
  let fresh (strategy, reduce) =
    let p = S.Middleware.prepare_text db view in
    S.Middleware.estimated_cost
      (S.Middleware.plan_streams ~reduce p
         (S.Middleware.partition_of ~reduce p
            (S.Middleware.strategy_of_string strategy)))
  in
  let ask t (strategy, reduce) = Service.query t ~view ~strategy ~reduce in
  with_server (fun t ->
      let before = List.map (fun r -> xml_of (ask t r)) requests in
      List.iter2
        (fun ((strategy, reduce) as r) xml ->
          let name = Printf.sprintf "%s reduce=%b" strategy reduce in
          ignore (Service.invalidate t);
          match ask t r with
          | Protocol.Result { xml = again; tiers; est_cost; _ } ->
              Alcotest.(check (pair bool bool))
                (name ^ ": plan hit, result miss") (true, false)
                (tiers.Protocol.plan_hit, tiers.Protocol.result_hit);
              Alcotest.(check string) (name ^ ": same bytes") xml again;
              Alcotest.(check (float 0.0))
                (name ^ ": est_cost") (fresh r) est_cost
          | reply ->
              Alcotest.failf "%s: expected a result, got %s" name
                (Protocol.reply_name reply))
        requests before;
      Alcotest.(check int) "stats epoch unchanged" 0 (Service.stats_epoch t);
      let _, plans, results = Service.tier_stats t in
      Alcotest.(check int) "plan tier never flushed" 0 plans.Lru.flushes;
      Alcotest.(check int) "result tier flushed per invalidation"
        (List.length requests) results.Lru.flushes;
      ignore (Service.invalidate ~skew:("Supplier", 8.0) t);
      let _, plans, _ = Service.tier_stats t in
      Alcotest.(check int) "skew empties the plan tier" 0 plans.Lru.entries;
      Alcotest.(check bool) "skew: plan miss" false
        (tiers_of (ask t (List.hd requests))).Protocol.plan_hit)

(* Tiers stay consistent while invalidations race the requests.  In
   each of three rounds two domains send q1-q3 x {greedy, edges:5} x
   reduce while a third invalidates on a seeded schedule, a third of
   them skewing Supplier.  Every reply carries the direct pipeline's
   bytes and, to the bit, the estimate of a fresh planning on the
   catalog of a stats epoch current during that request.  Once the
   domains have joined, one more quiet request per key leaves exactly
   one plan per key and one document per view: no tier holds an entry
   of an ended epoch. *)
let test_concurrent_invalidation_consistent () =
  let db = Lazy.force db in
  let views = S.Queries.[ query1_text; query2_text; query3_text ] in
  let keys =
    Array.of_list
      (List.concat_map
         (fun view ->
           List.concat_map
             (fun strategy ->
               List.map (fun reduce -> (view, strategy, reduce)) [ true; false ])
             [ "greedy"; "edges:5" ])
         views)
  in
  let prepare stats view =
    { (S.Middleware.prepare_text db view) with
      S.Middleware.stats = Lazy.from_val stats }
  in
  let plan p strategy reduce =
    S.Middleware.partition_of ~reduce p (S.Middleware.strategy_of_string strategy)
  in
  let base = R.Stats.analyze db in
  let direct =
    Array.map
      (fun (view, strategy, reduce) ->
        let p = prepare base view in
        S.Middleware.xml_string_of p
          (S.Middleware.execute ~reduce p (plan p strategy reduce)))
      keys
  in
  let rs = Random.State.make [| 46 |] in
  let schedule =
    Array.init 120 (fun _ ->
        ( (if Random.State.int rs 3 = 0 then
             Some (if Random.State.bool rs then 2.0 else 0.5)
           else None),
          0.0005 +. Random.State.float rs 0.002 ))
  in
  (* the catalog of stats epoch [k]: the schedule's first [k] skews *)
  let catalogs =
    Array.fold_left
      (fun acc (skew, _) ->
        match (skew, acc) with
        | Some f, st :: _ -> R.Stats.skew st "Supplier" f :: acc
        | _ -> acc)
      [ base ] schedule
    |> List.rev |> Array.of_list
  in
  let fresh = Hashtbl.create 64 in
  let fresh_est i k =
    match Hashtbl.find_opt fresh (i, k) with
    | Some est -> est
    | None ->
        let view, strategy, reduce = keys.(i) in
        let p = prepare catalogs.(k) view in
        let est =
          S.Middleware.estimated_cost
            (S.Middleware.plan_streams ~reduce p (plan p strategy reduce))
        in
        Hashtbl.add fresh (i, k) est;
        est
  in
  let config = { Service.default_config with Service.trace_sample = 0 } in
  with_server ~config (fun t ->
      let next = ref 0 in
      let round r =
        let requesting = Atomic.make 2 in
        let ask seed () =
          let rs = Random.State.make [| r; seed |] in
          let replies =
            List.init 40 (fun _ ->
                let i = Random.State.int rs (Array.length keys) in
                let view, strategy, reduce = keys.(i) in
                let e0 = Service.stats_epoch t in
                let reply = Service.query t ~view ~strategy ~reduce in
                (i, e0, Service.stats_epoch t, reply))
          in
          Atomic.decr requesting;
          replies
        in
        let invalidate () =
          while Atomic.get requesting > 0 && !next < Array.length schedule do
            let skew, pause = schedule.(!next) in
            incr next;
            Unix.sleepf pause;
            ignore
              (Service.invalidate
                 ?skew:(Option.map (fun f -> ("Supplier", f)) skew)
                 t)
          done
        in
        let invalidator = Domain.spawn invalidate in
        let requesters = List.map (fun seed -> Domain.spawn (ask seed)) [ 1; 2 ] in
        let replies = List.concat_map Domain.join requesters in
        Domain.join invalidator;
        List.iter
          (fun (i, e0, e1, reply) ->
            let _, strategy, reduce = keys.(i) in
            let name =
              Printf.sprintf "round %d: q%d %s reduce=%b, stats epochs %d-%d" r
                (1 + (i / 4)) strategy reduce e0 e1
            in
            match reply with
            | Protocol.Result { xml; est_cost; _ } ->
                Alcotest.(check string) (name ^ ": bytes") direct.(i) xml;
                let bits = Int64.bits_of_float est_cost in
                if
                  not
                    (List.exists
                       (fun k -> Int64.bits_of_float (fresh_est i k) = bits)
                       (List.init (e1 - e0 + 1) (fun d -> e0 + d)))
                then
                  Alcotest.failf "%s: est_cost %.17g is no catalog's estimate"
                    name est_cost
            | r ->
                Alcotest.failf "%s: expected a result, got %s" name
                  (Protocol.reply_name r))
          replies;
        Array.iter
          (fun (view, strategy, reduce) ->
            ignore (xml_of (Service.query t ~view ~strategy ~reduce)))
          keys;
        let _, plans, results = Service.tier_stats t in
        Alcotest.(check int)
          (Printf.sprintf "round %d: one plan per key" r)
          (Array.length keys) plans.Lru.entries;
        Alcotest.(check int)
          (Printf.sprintf "round %d: one document per view" r)
          (List.length views) results.Lru.entries
      in
      List.iter round [ 1; 2; 3 ])

(* Fragments are priced once per view and catalog.  After [partitioned]
   has priced q1's single-node fragments, and across a plain
   invalidation, [edges:0] (the same partition under another key) is a
   plan miss and a result hit that reaches no SQL stage, with the bytes
   and estimate of a fresh planning and no work.
   A skew discards the estimates: the request plans again and replies
   with a fresh server's estimate on the skewed catalog.  With the plan
   tier off nothing is kept across requests.  On a random view with
   many edges asked under many masks, the table stays within its bound,
   and after a greedy request has filled it every reply carries its
   plan's own estimate. *)
let test_priced_miss_plans_no_sql () =
  let db = Lazy.force db in
  let view = S.Queries.query1_text in
  let sql_samples t =
    match Service.handle t Protocol.Metrics with
    | Protocol.Info text ->
        let parsed = Obs.Expose.parse text in
        List.map
          (fun st ->
            Obs.Expose.find parsed
              (Printf.sprintf "silkroute_stage_ms_count{stage=%S}"
                 (Obs.Stage.name st))
            |> Option.value ~default:0.0)
          Obs.Stage.[ Sql_gen; Sql_print; Sql_parser; Physical ]
    | r -> Alcotest.failf "expected Info, got %s" (Protocol.reply_name r)
  in
  let fresh strategy =
    let p = S.Middleware.prepare_text db view in
    S.Middleware.estimated_cost
      (S.Middleware.plan_streams p
         (S.Middleware.partition_of p (S.Middleware.strategy_of_string strategy)))
  in
  let ask t strategy = Service.query t ~view ~strategy ~reduce:false in
  let reply name ~plan_hit ~result_hit ~xml ~est ~work = function
    | Protocol.Result r ->
        Alcotest.(check (pair bool bool))
          (name ^ ": plan and result hits") (plan_hit, result_hit)
          (r.tiers.Protocol.plan_hit, r.tiers.Protocol.result_hit);
        Alcotest.(check string) (name ^ ": bytes") xml r.xml;
        Alcotest.(check int64) (name ^ ": est_cost")
          (Int64.bits_of_float est) (Int64.bits_of_float r.est_cost);
        Alcotest.(check int) (name ^ ": work") work r.work
    | r -> Alcotest.failf "%s: expected a result, got %s" name (Protocol.reply_name r)
  in
  with_server (fun t ->
      let xml = xml_of (ask t "partitioned") in
      (* a plain invalidation keeps the estimates; the plan hit re-runs
         the document *)
      ignore (Service.invalidate t);
      Alcotest.(check bool) "after a plain invalidation: plan hit" true
        (tiers_of (ask t "partitioned")).Protocol.plan_hit;
      let before = sql_samples t in
      reply "edges:0" ~plan_hit:false ~result_hit:true ~xml
        ~est:(fresh "edges:0") ~work:0 (ask t "edges:0");
      Alcotest.(check (list (float 0.0))) "no SQL stage reached" before
        (sql_samples t);
      ignore (Service.invalidate ~skew:("Supplier", 8.0) t);
      let skewed =
        let t = Service.create db in
        Fun.protect ~finally:(fun () -> Service.shutdown t) @@ fun () ->
        ignore (Service.invalidate ~skew:("Supplier", 8.0) t);
        match ask t "edges:0" with
        | Protocol.Result { est_cost; _ } -> est_cost
        | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r)
      in
      Alcotest.(check bool) "the skew moves the estimate" true
        (skewed <> fresh "edges:0");
      let before = sql_samples t in
      (match ask t "edges:0" with
      | Protocol.Result r ->
          Alcotest.(check bool) "after the skew: plan miss" false
            r.tiers.Protocol.plan_hit;
          Alcotest.(check int64) "after the skew: a fresh server's est_cost"
            (Int64.bits_of_float skewed) (Int64.bits_of_float r.est_cost)
      | r -> Alcotest.failf "expected a result, got %s" (Protocol.reply_name r));
      if List.for_all2 ( = ) before (sql_samples t) then
        Alcotest.fail "after the skew the fragments were not planned again");
  with_server
    ~config:{ Service.default_config with Service.plan_capacity = 0 }
    (fun t ->
      ignore (ask t "partitioned");
      let before = sql_samples t in
      ignore (ask t "edges:0");
      if List.exists2 (fun a b -> a >= b) before (sql_samples t) then
        Alcotest.fail "plan tier off: a request reused estimates");
  (* the first generated view with at least 8 edges *)
  let rec many_edges seed =
    let v =
      QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |])
        Test_random_views.gen_view
    in
    let p = S.Middleware.prepare db v in
    if S.View_tree.edge_count p.S.Middleware.tree >= 8 then (v, p)
    else many_edges (seed + 1)
  in
  let v, p = many_edges 0 in
  let view = S.Rxl.to_string v in
  let tree = p.S.Middleware.tree in
  let plans = 2 in
  let bound = plans * S.View_tree.node_count tree in
  let costs = S.Middleware.fragment_costs p ~plans in
  let masks =
    List.init 64 (fun i -> (i * 37) land ((1 lsl S.View_tree.edge_count tree) - 1))
  in
  (* each plan's own estimate, [None] where the view cannot run it *)
  let own reduce partition =
    match
      S.Middleware.estimated_cost (S.Middleware.plan_streams ~reduce p partition)
    with
    | exception S.View_tree.Unsupported _ -> None
    | est -> Some est
  in
  List.iter
    (fun mask ->
      let partition = S.Partition.of_mask tree mask in
      Option.iter
        (fun est ->
          let priced, _ = S.Middleware.price ~costs p partition in
          let entries = S.Planner.cost_entries costs in
          if entries > bound then
            Alcotest.failf "mask %d: %d estimates kept, bound %d" mask entries
              bound;
          Alcotest.(check int64)
            (Printf.sprintf "mask %d: priced" mask)
            (Int64.bits_of_float est) (Int64.bits_of_float priced))
        (own false partition))
    masks;
  (* genPlan fills the table with [Cost.ask] of each fragment's query,
     pricing with [Cost.annotate] of its printed, parsed and planned
     text: greedy first, then the masks read what it kept, and every
     reply must carry its plan's own estimate *)
  let served t ~reduce name strategy expected =
    match Service.query t ~view ~strategy ~reduce, expected with
    | Protocol.Result { est_cost; _ }, Some est ->
        Alcotest.(check int64) name (Int64.bits_of_float est)
          (Int64.bits_of_float est_cost)
    | Protocol.Failed _, None -> ()
    | r, _ -> Alcotest.failf "%s: unexpected %s" name (Protocol.reply_name r)
  in
  List.iter
    (fun plan_capacity ->
      with_server
        ~config:{ Service.default_config with Service.plan_capacity }
        (fun t ->
          List.iter
            (fun reduce ->
              let name what =
                Printf.sprintf "plans=%d reduce=%b %s" plan_capacity reduce
                  what
              in
              served t ~reduce (name "greedy") "greedy"
                (own reduce (S.Middleware.partition_of ~reduce p S.Middleware.Greedy));
              List.iter
                (fun mask ->
                  served t ~reduce
                    (name (Printf.sprintf "mask %d" mask))
                    (Printf.sprintf "edges:%d" mask)
                    (own reduce (S.Partition.of_mask tree mask)))
                masks)
            [ false; true ]))
    [ plans; Service.default_config.Service.plan_capacity ]

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
   row and bump the epoch.  A table the catalog lacks fails naming it.
   A rejected skew installs no generation: the next invalidation is the
   first. *)
let test_invalidate_rejects_non_finite () =
  with_server (fun t ->
      List.iter
        (fun (table, factor) ->
          (match Service.handle t (Protocol.Invalidate { table; factor }) with
          | Protocol.Failed msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %g: names the table in %S" table factor msg)
                true
                (table = "Supplier" || contains msg table)
          | r ->
              Alcotest.failf "%s %g: expected Failed, got %s" table factor
                (Protocol.reply_name r));
          Alcotest.(check int)
            (Printf.sprintf "%s %g: epoch unchanged" table factor)
            0 (Service.stats_epoch t))
        [ ("Supplier", Float.nan); ("Supplier", Float.infinity);
          ("Supplier", 1e300); ("Nope", 2.0) ];
      let g = Service.invalidate t in
      Alcotest.(check (pair int int)) "generation unchanged" (1, 0)
        (g.Service.data_epoch, g.Service.stats_epoch))

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
  match S.Tagger.to_document broken [] with
  | _ -> Alcotest.fail "expected Invalid_argument"
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
    Alcotest.test_case "protocol: writer enforces the field cap" `Quick
      test_protocol_field_cap;
    Alcotest.test_case "tiers: cold then warm" `Quick test_tier_progression;
    Alcotest.test_case "byte identity: whole lattice, cached + uncached" `Quick
      test_byte_identity_all_plans;
    Alcotest.test_case "one document per plan: nullable view" `Quick
      test_nullable_view_served_per_plan;
    Alcotest.test_case "one document per plan: dangling foreign key" `Quick
      test_dangling_fk_served_per_plan;
    Alcotest.test_case "invalidation: stats epoch" `Quick test_epoch_invalidation;
    Alcotest.test_case "invalidation: plain keeps plans, skew flushes" `Quick
      test_plain_invalidation_keeps_plans;
    Alcotest.test_case "invalidation: concurrent, tiers stay consistent" `Quick
      test_concurrent_invalidation_consistent;
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
    Alcotest.test_case "plan tier: concurrent misses plan once" `Quick
      test_concurrent_plan_miss;
    Alcotest.test_case "plan tier: a priced miss plans no SQL" `Quick
      test_priced_miss_plans_no_sql;
  ]
