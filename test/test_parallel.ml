(* The domain fan-out: Domain_pool unit tests, then matrix slices
   holding a run on a [~pool] to the inline reference — byte-identical
   XML and exact work/tuples/bytes/transfer parity for every plan in the
   2^|E| lattice at pool sizes {1, 2, 4}, resilience counters
   deterministic under faults at every pool size — one failure contract
   (same [Plan_timeout], no spool file left) at every pool size, and
   span coherence (parent-before-child, start order) when several
   domains trace at once. *)

open Silkroute
module R = Relational

(* --- Domain_pool -------------------------------------------------------- *)

let test_pool_results_in_order () =
  List.iter
    (fun domains ->
      R.Domain_pool.with_pool ~domains (fun pool ->
          let hs =
            List.init 20 (fun i -> R.Domain_pool.submit pool (fun () -> i * i))
          in
          let got = List.map R.Domain_pool.await hs in
          Alcotest.(check (list int))
            (Printf.sprintf "squares @%d domains" domains)
            (List.init 20 (fun i -> i * i))
            got))
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_propagates_exceptions () =
  List.iter
    (fun domains ->
      R.Domain_pool.with_pool ~domains (fun pool ->
          let ok = R.Domain_pool.submit pool (fun () -> 41) in
          let bad = R.Domain_pool.submit pool (fun () -> raise (Boom 7)) in
          let ok2 = R.Domain_pool.submit pool (fun () -> 43) in
          Alcotest.(check int) "task before" 41 (R.Domain_pool.await ok);
          (match R.Domain_pool.await bad with
          | _ -> Alcotest.fail "await of a failed task must raise"
          | exception Boom 7 -> ()
          | exception e ->
              Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
          (* a task exception must not kill the worker *)
          Alcotest.(check int) "task after" 43 (R.Domain_pool.await ok2)))
    [ 1; 2 ]

let test_pool_more_tasks_than_workers () =
  R.Domain_pool.with_pool ~domains:2 (fun pool ->
      let hs = List.init 100 (fun i -> R.Domain_pool.submit pool (fun () -> i)) in
      Alcotest.(check int) "sum" 4950
        (List.fold_left (fun acc h -> acc + R.Domain_pool.await h) 0 hs))

let test_pool_submit_after_shutdown () =
  let pool = R.Domain_pool.create ~domains:2 in
  let h = R.Domain_pool.submit pool (fun () -> 1) in
  Alcotest.(check int) "pre-shutdown task" 1 (R.Domain_pool.await h);
  R.Domain_pool.shutdown pool;
  match R.Domain_pool.submit pool (fun () -> 2) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_pool_rejects_zero_domains () =
  match R.Domain_pool.create ~domains:0 with
  | _ -> Alcotest.fail "domains:0 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- cursor close -------------------------------------------------------- *)

let cols = [| "a" |]
let rows = List.init 5 (fun i -> [| R.Value.Int i |])

let test_cursor_close_semantics () =
  (* close mid-read: no more rows, idempotent *)
  let c = R.Cursor.spool (R.Cursor.of_list cols rows) in
  Alcotest.(check bool) "first row" true (R.Cursor.next c <> None);
  R.Cursor.close c;
  Alcotest.(check bool) "closed: no rows" true (R.Cursor.next c = None);
  R.Cursor.close c;
  Alcotest.(check bool) "double close harmless" true (R.Cursor.next c = None);
  (* close after full drain is also fine *)
  let c2 = R.Cursor.spool (R.Cursor.of_list cols rows) in
  Alcotest.(check int) "all rows" 5 (List.length (R.Cursor.to_list c2));
  R.Cursor.close c2

(* --- differential: parallel vs sequential -------------------------------- *)

(* Fanned-out runs, rows in the heap and spooled, against the inline
   reference. *)
let fanned_out pool = Matrix.runs ~spool:[ false; true ] ~pool ()

(* Small view: every mask of the lattice at every domain count. *)
let test_fragment_all_masks_all_domains () =
  Matrix.(check [ slice fragment figure8 ~modes:(fanned_out [ 1; 2; 4 ]) ])

(* Q1/Q2: every one of the 2^|E| plans at 4 domains; 1 and 2 domains on
   a stride-4 subsample. *)
let test_exhaustive view () =
  let open Matrix in
  check
    [
      slice view (tpch 0.08) ~modes:(fanned_out [ 4 ]);
      slice view (tpch 0.08) ~masks:(every 4) ~modes:(fanned_out [ 1; 2 ]);
    ]

(* --- resilience under fan-out -------------------------------------------- *)

(* For each fault rate, byte-identical XML *and* bit-identical
   resilience counters at every domain count: per-stream backend forks
   make the fault draws independent of how streams interleave. *)
let test_resilient_counters_deterministic () =
  let faults = Matrix.resilient ~seed:11 [ 0.0; 0.3 ] in
  let modes = Matrix.runs ~spool:[ true ] ~pool:[ 1; 2; 4 ] ~faults () in
  Matrix.(check [ slice fragment figure8 ~modes ])

(* A work budget that the unified plan cannot meet forces degradation
   into finer fragments; fanned out, the degraded runs must still merge
   to the exact fault-free document and count the same degradations.
   A budget below the heaviest single-node stream, with no splits
   allowed, is the failure contract: every pool size raises the same
   [Plan_timeout] (earliest failing stream in plan order) and closes
   the spools of the streams that completed. *)
let test_degradation_under_fanout () =
  let open Matrix in
  let db = tpch 0.1 and unified = 511 in
  let budget = degradation_budget q1 db in
  Alcotest.(check bool) "unified plan must exceed the budget" true
    (reference_work q1 db unified > budget);
  let faults = [ { no_faults with max_splits = 8; budget } ] in
  let modes = runs ~spool:[ true ] ~pool:[ 1; 2; 4 ] ~faults () in
  check ~fired:[ `Degraded ] [ slice q1 db ~masks:(only [ unified ]) ~modes ];
  let p = (truth q1 db).p in
  let timeout_of pool =
    let backend = R.Backend.create ~budget:(budget / 4) p.db in
    let fully = Partition.fully_partitioned p.tree in
    match Middleware.execute ~backend ~spool:true ~pool p fully with
    | _ -> Alcotest.fail "a budget below the heaviest stream must time out"
    | exception Middleware.Plan_timeout t -> (t.timeout_stream, t.timeout_root)
  in
  let no_spool_left label =
    Alcotest.(check (list string))
      (label ^ ": no spool file left behind")
      [] (spool_files ())
  in
  with_private_spool_dir @@ fun () ->
  let timeout1 = timeout_of R.Domain_pool.inline in
  no_spool_left "inline";
  List.iter
    (fun domains ->
      R.Domain_pool.with_pool ~domains @@ fun pool ->
      let label = Printf.sprintf "@%d domains" domains in
      Alcotest.(check (pair int string))
        (label ^ ": same Plan_timeout stream and root")
        timeout1 (timeout_of pool);
      no_spool_left label)
    [ 1; 2; 4 ]

(* --- observability coherence --------------------------------------------- *)

(* With tracing on and the plan fanned out over 4 domains, the span log
   must still be globally start-ordered with every parent logged before
   its children, and the multiset of span names must match a sequential
   traced run (same spans, merely interleaved). *)
let span_names () =
  List.sort compare (List.map (fun s -> s.Obs.Span.name) (Obs.Span.spans ()))

let test_spans_coherent_across_domains () =
  let db = Tpch.Gen.figure8_database () in
  let p = Middleware.prepare_text db Queries.fragment_text in
  let plan = Partition.fully_partitioned p.Middleware.tree in
  Obs.Control.with_enabled true (fun () ->
      Obs.Span.reset ();
      ignore (Middleware.execute p plan);
      let seq_names = span_names () in
      Obs.Span.reset ();
      R.Domain_pool.with_pool ~domains:4 (fun pool ->
          ignore (Middleware.execute ~pool p plan));
      let spans = Obs.Span.spans () in
      Alcotest.(check (list string))
        "same span multiset as sequential" seq_names (span_names ());
      let seen = Hashtbl.create 64 in
      List.fold_left
        (fun prev s ->
          Alcotest.(check bool) "log in start order" true
            (Int64.compare prev s.Obs.Span.start_ns <= 0);
          (match s.Obs.Span.parent with
          | None -> ()
          | Some parent ->
              Alcotest.(check bool)
                (Printf.sprintf "span %d: parent %d logged first"
                   s.Obs.Span.id parent)
                true (Hashtbl.mem seen parent));
          Hashtbl.replace seen s.Obs.Span.id ();
          s.Obs.Span.start_ns)
        Int64.min_int spans
      |> ignore;
      Obs.Span.reset ())

(* A plan from the backend is never written by a run: the same plan run
   twice in sequence, then twice at once on two domains, gives equal
   rows, equal meters and equal per-node actuals every time, and prints
   the same afterwards.  A statement cache relies on this. *)
let test_plan_reused_across_runs () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let stream =
    List.hd
      (Sql_gen.streams db p.Middleware.tree
         (Partition.unified p.Middleware.tree)
         { Sql_gen.style = Sql_gen.Outer_join; labels = None })
  in
  let plan =
    R.Backend.plan db (R.Sql_print.to_string stream.Sql_gen.query)
  in
  let bare () =
    R.Physical.to_string plan (R.Physical.no_estimates plan)
      (R.Physical.no_actuals plan)
  in
  let printed = bare () in
  let run () =
    let rel, st = R.Executor.run_plan_with_stats db plan in
    (List.map R.Tuple.to_string (R.Relation.rows rel), st)
  in
  let first_rows, first = run () in
  let runs =
    run ()
    :: R.Domain_pool.with_pool ~domains:2 (fun pool ->
           List.map R.Domain_pool.await
             [ R.Domain_pool.submit pool run; R.Domain_pool.submit pool run ])
  in
  let ops = ref [] in
  R.Physical.iter (fun n -> ops := R.Physical.op_name n :: !ops) plan;
  Alcotest.(check bool) "the plan joins and sorts" true
    (List.mem "hash-join" !ops && List.mem "sort" !ops);
  (* every figure but the per-node clock readings, which are times *)
  let counters (st : R.Executor.stats) =
    { st with actuals = { st.actuals with ns = [||] } }
  in
  List.iteri
    (fun i (rows, (st : R.Executor.stats)) ->
      let what = Printf.sprintf "run %d" (i + 2) in
      Alcotest.(check (list string)) (what ^ ": rows") first_rows rows;
      Alcotest.(check bool) (what ^ ": stats") true (counters st = counters first);
      Alcotest.(check bool) (what ^ ": every node timed") true
        (Array.for_all (fun ns -> ns >= 0)
           (Array.sub st.actuals.ns 1 (Array.length st.actuals.ns - 1)));
      Alcotest.(check (array int)) (what ^ ": actual rows")
        first.actuals.rows st.actuals.rows;
      Alcotest.(check (array int)) (what ^ ": actual cost")
        first.actuals.cost st.actuals.cost;
      Alcotest.(check bool) (what ^ ": own actuals") false
        (st.actuals == first.actuals))
    runs;
  Alcotest.(check string) "plan unchanged" printed (bare ())

let suite =
  [
    Alcotest.test_case "pool: results in order" `Quick test_pool_results_in_order;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "pool: 100 tasks on 2 workers" `Quick
      test_pool_more_tasks_than_workers;
    Alcotest.test_case "pool: submit after shutdown" `Quick
      test_pool_submit_after_shutdown;
    Alcotest.test_case "pool: rejects 0 domains" `Quick
      test_pool_rejects_zero_domains;
    Alcotest.test_case "cursor close semantics" `Quick
      test_cursor_close_semantics;
    Alcotest.test_case "fragment: all masks x domains {1,2,4}" `Quick
      test_fragment_all_masks_all_domains;
    Alcotest.test_case "exhaustive plans parallel = sequential (Q1)" `Slow
      (test_exhaustive Matrix.q1);
    Alcotest.test_case "exhaustive plans parallel = sequential (Q2)" `Slow
      (test_exhaustive Matrix.q2);
    Alcotest.test_case "resilient counters deterministic across domains"
      `Quick test_resilient_counters_deterministic;
    Alcotest.test_case "degradation under fan-out" `Quick
      test_degradation_under_fanout;
    Alcotest.test_case "spans coherent across domains" `Quick
      test_spans_coherent_across_domains;
    Alcotest.test_case "one plan, runs in sequence and at once" `Quick
      test_plan_reused_across_runs;
  ]
