(* Request-scoped sharing of repeated join subtrees (Relational.Share):
   a shared run of a request is its streams run alone — the same rows,
   counters and per-node figures, the same XML, resilience record and
   Plan_timeout — and a replayed output is read-only. *)

open Silkroute
module R = Relational
module P = R.Physical

let db = lazy (Tpch.Gen.generate (Tpch.Gen.config 0.1))

let prepared =
  let q1 = lazy (Middleware.prepare_text (Lazy.force db) Queries.query1_text)
  and q2 = lazy (Middleware.prepare_text (Lazy.force db) Queries.query2_text) in
  function "q1" -> Lazy.force q1 | _ -> Lazy.force q2

(* Every figure of a run but its times and its replays. *)
let figures (st : R.Executor.stats) =
  ( (st.scanned, st.probed, st.emitted, st.sorted, st.spill_passes, st.work),
    (st.actuals.rows, st.actuals.cost, st.actuals.spills) )

let replays (e : Middleware.execution) =
  List.fold_left
    (fun acc (se : Middleware.stream_exec) ->
      acc + List.length se.se_stats.R.Executor.replayed)
    0 e.per_stream

let cases =
  List.concat_map
    (fun q ->
      List.concat_map
        (fun reduce ->
          List.map
            (fun strategy -> (q, reduce, strategy))
            Middleware.[ Greedy; Fully_partitioned; Edges 37 ])
        [ false; true ])
    [ "q1"; "q2" ]

let label (q, reduce, strategy) =
  Printf.sprintf "%s %s reduce %b" q (Middleware.strategy_name strategy) reduce

(* Each stream's text run alone through a fresh backend, against the
   shared run [e]: same figures, rows and accounting per stream, and
   the same XML from the alone runs' rows. *)
let check_alone what p (e : Middleware.execution) xml =
  let alone =
    List.map
      (fun (se : Middleware.stream_exec) ->
        let db = p.Middleware.db in
        let r =
          R.Backend.execute_plan (R.Backend.create db) (R.Backend.plan db se.se_sql)
        in
        let what = Printf.sprintf "%s, stream %s" what se.se_sql in
        if figures r.stats <> figures se.se_stats then
          Alcotest.failf "%s: figures differ from the stream run alone" what;
        if
          (r.tuples, r.bytes, r.transfer_ms)
          <> (se.se_rows, se.se_bytes, se.se_transfer_ms)
        then Alcotest.failf "%s: accounting differs" what;
        (se.se_stream, r.rows ()))
      e.per_stream
  in
  Alcotest.(check string)
    (what ^ ": XML")
    (Tagger.to_string_cursors p.tree alone)
    xml

let test_parity () =
  let shared = ref 0 in
  List.iter
    (fun ((q, reduce, strategy) as case) ->
      let p = prepared q in
      let plan = Middleware.partition_of ~reduce p strategy in
      let run ?pool ?spool () =
        let e = Middleware.execute ~reduce ?pool ?spool p plan in
        (e, Middleware.xml_string_of p e)
      in
      let e, xml = run () in
      check_alone (label case) p e xml;
      shared := !shared + replays e;
      let e2, xml2 = run ~spool:true () in
      check_alone (label case ^ ", spooled") p e2 xml2;
      R.Domain_pool.with_pool ~domains:2 (fun pool ->
          let e3, xml3 = run ~pool () in
          check_alone (label case ^ ", 2 domains") p e3 xml3))
    cases;
  Alcotest.(check bool) "some case shares a subtree" true (!shared > 0)

(* Under injected faults, each stream's record is that of its text run
   alone through the same fork: retries replay what the store holds,
   and a winning attempt's figures are a clean run's. *)
let test_faults () =
  let retried = ref 0 in
  List.iter
    (fun ((q, reduce, strategy) as case) ->
      let p = prepared q in
      let plan = Middleware.partition_of ~reduce p strategy in
      List.iter
        (fun seed ->
          let backend () =
            R.Backend.create
              ~faults:(R.Backend.faults ~seed 0.3)
              ~retries:8
              p.db
          in
          let e = Middleware.execute ~reduce ~backend:(backend ()) p plan in
          let what = Printf.sprintf "%s, seed %d" (label case) seed in
          check_alone what p e (Middleware.xml_string_of p e);
          let template = backend () in
          let expected =
            R.Backend.merge_stats
              (List.mapi
                 (fun i (se : Middleware.stream_exec) ->
                   let fork = R.Backend.fork template ~salt:i in
                   ignore (R.Backend.execute_plan fork (R.Backend.plan p.db se.se_sql));
                   R.Backend.stats fork)
                 e.per_stream)
          in
          retried := !retried + expected.R.Backend.retries;
          Alcotest.(check bool)
            (what ^ ": resilience record of the streams run alone")
            true
            (e.resilience = expected))
        [ 1; 14 ])
    (List.filter (fun (q, _, _) -> q = "q1") cases);
  Alcotest.(check bool) "some stream was retried" true (!retried > 0)

(* A budget between two streams' work: the shared run times out on the
   stream the alone runs do, with the same number and root. *)
let test_budget () =
  let timed_out = ref 0 in
  List.iter
    (fun ((q, reduce, strategy) as case) ->
      let p = prepared q in
      let plan = Middleware.partition_of ~reduce p strategy in
      let e = Middleware.execute ~reduce p plan in
      let work (se : Middleware.stream_exec) = se.se_stats.R.Executor.work in
      (* a stream that replays, heavier than every stream before it *)
      let rec pick heaviest = function
        | [] -> None
        | (se : Middleware.stream_exec) :: rest ->
            if se.se_stats.R.Executor.replayed <> [] && work se > heaviest then
              Some se
            else pick (max heaviest (work se)) rest
      in
      match pick 0 e.per_stream with
      | None -> ()
      | Some victim -> (
          incr timed_out;
          let budget = work victim - 1 in
          let backend = R.Backend.create ~budget p.db in
          match Middleware.execute ~reduce ~backend p plan with
          | _ -> Alcotest.failf "%s: budget %d must time out" (label case) budget
          | exception Middleware.Plan_timeout t ->
              let rec index i = function
                | (se : Middleware.stream_exec) :: rest ->
                    if se == victim then i else index (i + 1) rest
                | [] -> assert false
              in
              Alcotest.(check int)
                (label case ^ ": stream number, from 1")
                (index 1 e.per_stream) t.timeout_stream;
              Alcotest.(check string)
                (label case ^ ": root")
                (View_tree.skolem_name
                   (View_tree.node p.tree victim.se_stream.fragment.root)
                     .View_tree.sfi)
                t.timeout_root))
    cases;
  Alcotest.(check bool) "some budget timed a replaying stream out" true
    (!timed_out > 0)

(* Nothing outlives a call: the first stream of each call computes,
   and two calls replay alike. *)
let test_calls_do_not_share () =
  let p = prepared "q1" in
  let plan = Partition.fully_partitioned p.tree in
  let e1 = Middleware.execute p plan in
  let e2 = Middleware.execute p plan in
  Alcotest.(check bool) "the first call shares" true (replays e1 > 0);
  Alcotest.(check int) "the second call replays no more" (replays e1)
    (replays e2);
  Alcotest.(check bool) "its first stream replays nothing" true
    ((List.hd e2.per_stream).se_stats.R.Executor.replayed = [])

(* explain names each replayed subtree's root and the stream that ran
   it; diagnose lists them apart, and does not time them. *)
let test_explained () =
  let p = prepared "q1" in
  let e = Middleware.execute p (Partition.fully_partitioned p.tree) in
  let n = replays e in
  let marked =
    let key = " shared from stream " in
    let rec has l i =
      i + String.length key <= String.length l
      && (String.sub l i (String.length key) = key || has l (i + 1))
    in
    List.filter
      (fun l -> has l 0)
      (String.split_on_char '\n' (Middleware.explain_execution p e))
  in
  Alcotest.(check int) "explain marks every replayed root" n (List.length marked);
  let samples = Middleware.diagnose_samples p e in
  let shared = List.filter (fun s -> s.Obs.Diagnose.d_shared <> "") samples in
  Alcotest.(check int) "diagnose marks every replayed root" n (List.length shared);
  List.iter
    (fun (s : Obs.Diagnose.sample) ->
      Alcotest.(check bool) "a replayed root is not timed" true (s.d_act_ms < 0.0);
      Alcotest.(check bool) "it names a stream of the run" true
        (List.exists
           (fun (se : Middleware.stream_exec) ->
             View_tree.skolem_name
               (View_tree.node p.tree se.se_stream.fragment.root).View_tree.sfi
             = s.d_shared)
           e.per_stream))
    shared;
  let report = Obs.Diagnose.render ~resilience:"" samples in
  Alcotest.(check bool) "the report lists them" true
    (List.mem
       (Printf.sprintf
          "SHARED — %d subtree(s) replayed from another stream's run, not run \
           or timed here"
          n)
       (String.split_on_char '\n' report))

(* --- read-only output ---------------------------------------------------- *)

(* Supplier ⋈ Nation on nationkey, nodes 1 to 3. *)
let join () =
  let scan id table cols =
    {
      P.id = id;
      shape =
        P.Scan
          { table; alias = table; cols; col_names = Array.map string_of_int cols };
    }
  in
  {
    P.id = 3;
    shape =
      P.Join
        {
          left = scan 1 "Supplier" [| 0; 3 |];
          right = scan 2 "Nation" [| 0; 2 |];
          info =
            {
              P.kind = R.Sql.Inner;
              algo = P.Nested_loop;
              on = R.Expr.R_cmp (R.Expr.Eq, R.Expr.R_col 1, R.Expr.R_col 2);
              disjuncts = [];
              indexes = [];
              split = 2;
              right_width = 2;
              from_where = false;
            };
        };
  }

let under_filter () =
  let input = join () in
  {
    P.root =
      {
        P.id = 4;
        shape =
          P.Filter
            {
              input;
              pred =
                R.Expr.R_cmp (R.Expr.Lt, R.Expr.R_col 0, R.Expr.R_lit (R.Value.Int 3));
              pushed = false;
              charged = true;
            };
      };
    cols = [| "s"; "sn"; "n"; "r" |];
    nodes = 4;
  }

let derived () =
  {
    P.root = { P.id = 4; shape = P.Derived { input = join (); alias = "d" } };
    cols = [| "s"; "sn"; "n"; "r" |];
    nodes = 4;
  }

let rows_of plan share =
  let rel, st = R.Executor.run_plan_with_stats ?share (Lazy.force db) plan in
  (List.map R.Tuple.to_string (R.Relation.rows rel), st)

(* Two consumers of one stored join, one under a Filter, in either
   order: each gets every row it gets alone. *)
let test_read_only () =
  let kept = List.length (fst (rows_of (under_filter ()) None))
  and all = List.length (fst (rows_of (derived ()) None)) in
  Alcotest.(check bool) "the filter drops some rows, not all" true
    (0 < kept && kept < all);
  List.iter
    (fun plans ->
      let store = R.Share.create plans in
      Alcotest.(check int) "one repeated subtree" 1 (R.Share.subtrees store);
      List.iteri
        (fun i plan ->
          let alone, ast = rows_of plan None in
          let rows, st = rows_of plan (Some (R.Share.scope store i)) in
          let what = Printf.sprintf "consumer %d of %d" (i + 1) (List.length plans) in
          Alcotest.(check (list string)) (what ^ ": rows") alone rows;
          Alcotest.(check bool) (what ^ ": figures") true (figures ast = figures st);
          Alcotest.(check int)
            (what ^ ": replayed")
            (if i = 0 then 0 else 1)
            (List.length st.R.Executor.replayed))
        plans)
    [
      [ under_filter (); derived (); derived () ];
      [ derived (); under_filter (); derived () ];
    ]

(* A budget anywhere around the replayed subtree: the replaying run
   times out exactly when the run alone does — also when nothing is
   charged after the replay (a derived table over the join). *)
let test_replay_budget () =
  List.iter
    (fun (first, second) ->
      let _, alone = rows_of second None in
      for budget = 1 to alone.R.Executor.work + 1 do
        let store = R.Share.create [ first; second ] in
        ignore (rows_of first (Some (R.Share.scope store 0)));
        let outcome share =
          match
            R.Executor.run_plan_with_stats ~budget ?share (Lazy.force db) second
          with
          | _ -> "ok"
          | exception R.Executor.Timeout -> "timeout"
        in
        if outcome None <> outcome (Some (R.Share.scope store 1)) then
          Alcotest.failf "budget %d: the replay and the run alone disagree" budget
      done)
    [ (derived (), under_filter ()); (under_filter (), derived ()) ]

(* Structural keys leave out ids, aliases and printed names, and keep
   everything that changes what a subtree computes. *)
let test_keys () =
  let join_key sql =
    let p = P.plan_of (Lazy.force db) (R.Sql_parser.parse sql) in
    let keys = P.keys p and found = ref [] in
    P.iter
      (fun n ->
        match n.P.shape with P.Join _ -> found := keys.(n.P.id) :: !found | _ -> ())
      p;
    match !found with [ k ] -> k | _ -> Alcotest.failf "one join in %s" sql
  in
  let a =
    join_key
      "SELECT s.name AS x FROM Supplier AS s, Nation AS n WHERE s.nationkey = \
       n.nationkey ORDER BY x"
  and b =
    join_key
      "SELECT t.name AS y FROM Supplier AS t, Nation AS m WHERE t.nationkey = \
       m.nationkey ORDER BY y"
  and c =
    join_key
      "SELECT s.name AS x FROM Supplier AS s, Nation AS n WHERE s.suppkey = \
       n.nationkey ORDER BY x"
  in
  Alcotest.(check bool) "aliases and names left out" true (a = b);
  Alcotest.(check bool) "another predicate, another key" true (a <> c)

(* A store's scope runs only the plan it was counted for. *)
let test_scope_checks_plan () =
  let store = R.Share.create [ derived () ] in
  Alcotest.(check int) "a single occurrence is not counted" 0
    (R.Share.subtrees store);
  Alcotest.check_raises "another plan"
    (Invalid_argument "Executor: the share scope was counted for another plan")
    (fun () -> ignore (rows_of (derived ()) (Some (R.Share.scope store 0))))

let suite =
  [
    Alcotest.test_case "shared run = streams run alone" `Quick test_parity;
    Alcotest.test_case "faults: same resilience record" `Quick test_faults;
    Alcotest.test_case "budget: same Plan_timeout" `Quick test_budget;
    Alcotest.test_case "two calls never share" `Quick test_calls_do_not_share;
    Alcotest.test_case "explain and diagnose name replays" `Quick test_explained;
    Alcotest.test_case "replayed output is read-only" `Quick test_read_only;
    Alcotest.test_case "replay meets the budget like a run" `Quick
      test_replay_budget;
    Alcotest.test_case "a scope runs its own plan only" `Quick
      test_scope_checks_plan;
    Alcotest.test_case "structural keys ignore aliases" `Quick test_keys;
  ]
