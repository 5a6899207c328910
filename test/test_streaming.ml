(* The streaming pipeline (cursor execution, spooling, heap k-way merge):
   cursor laws, matrix slices of spooled against heap-drained execution
   and the naive materialization (bytes and work-unit parity), sinks,
   and the memory bound. *)

open Silkroute
module R = Relational

(* --- cursors ----------------------------------------------------------- *)

let cols = [| "a"; "b" |]

let rows =
  [
    [| R.Value.Int 1; R.Value.String "x" |];
    [| R.Value.Int 2; R.Value.Null |];
    [| R.Value.Int 3; R.Value.String "y&z" |];
  ]

let test_cursor_roundtrip () =
  let c = R.Cursor.of_list cols rows in
  Alcotest.(check int) "arity" 2 (R.Cursor.arity c);
  let back = R.Cursor.to_list c in
  Alcotest.(check bool) "same rows" true (List.for_all2 R.Tuple.equal rows back);
  Alcotest.(check bool) "exhausted" true (R.Cursor.next c = None);
  Alcotest.(check bool) "stays exhausted" true (R.Cursor.next c = None)

let test_cursor_spool_roundtrip () =
  let c = R.Cursor.spool (R.Cursor.of_list cols rows) in
  let back = R.Cursor.to_list c in
  Alcotest.(check bool) "spool preserves rows and order" true
    (List.for_all2 R.Tuple.equal rows back);
  Alcotest.(check bool) "exhausted" true (R.Cursor.next c = None)

(* The backend counts the rows it drains, into the heap or a spool file
   alike: their number, wire bytes and modeled transfer, priced in
   closed form from the rows' count and total size.  The result spans several executor chunks
   (500 rows, out of key order) and the Sort hands it back as one
   output; the heap run's rows can be opened again, and a run whose
   first attempts drop mid-stream and are retried counts only the
   winning attempt's rows. *)
let test_backend_run_counts () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let q =
    "SELECT o.orderkey AS k, o.status AS s, o.price AS p FROM Orders AS o \
     ORDER BY s, k"
  in
  let backend = R.Backend.create db in
  let out, _ =
    R.Executor.run_plan_batches_with_stats db (R.Backend.plan db q)
  in
  Alcotest.(check int) "the sort's output is one batch" 1 (List.length out);
  Alcotest.(check bool) "of more than one chunk's rows" true
    (R.Batch.length (List.hd out) > R.Batch.default_size);
  let spooled = R.Backend.execute ~spool:true backend q in
  let rows = R.Cursor.to_list (spooled.R.Backend.rows ()) in
  let bytes = List.map R.Tuple.wire_size rows in
  (* a spooled run's [rows ()] is one single-use cursor: read it once *)
  let read (r : R.Backend.run) = R.Cursor.to_list (r.R.Backend.rows ()) in
  let expect label ?(got = rows) (r : R.Backend.run) =
    Alcotest.(check int) (label ^ ": tuples") (List.length rows) r.tuples;
    Alcotest.(check int) (label ^ ": bytes")
      (List.fold_left ( + ) 0 bytes) r.bytes;
    Alcotest.(check (float 0.0)) (label ^ ": transfer")
      (R.Transfer.stream_ms ~tuples:(List.length rows)
         ~bytes:(List.fold_left ( + ) 0 bytes))
      r.transfer_ms;
    Alcotest.(check bool) (label ^ ": rows") true (List.equal R.Tuple.equal rows got)
  in
  expect "spooled" spooled;
  let heap = R.Backend.execute backend q in
  expect "heap" heap ~got:(read heap);
  expect "heap, opened again" heap ~got:(read heap);
  let faulty =
    R.Backend.create
      ~faults:(R.Backend.faults ~seed:3 ~midstream_weight:1.0 0.6)
      ~retries:30
      db
  in
  let dropped = R.Backend.execute faulty q in
  let st = R.Backend.stats faulty in
  Alcotest.(check bool) "a mid-stream drop fired and was retried" true
    (st.R.Backend.faults_midstream > 0 && st.R.Backend.retries > 0);
  expect "heap after drops" dropped ~got:(read dropped);
  let spooled_dropped = R.Backend.execute ~spool:true faulty q in
  expect "spooled after drops" spooled_dropped ~got:(read spooled_dropped)

(* The heap-drained path allocates the same on every run of a plan:
   after one warm-up, two runs of q1 greedy unreduced on one domain
   allocate the same minor words, so an allocation figure measured on
   this path is a property of the code, not of the run.  [Gc.minor_words]
   is exact; [Gc.quick_stat]'s minor words move in whole minor heaps. *)
let test_allocation_deterministic () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let plan = Middleware.partition_of ~reduce:false p Middleware.Greedy in
  let run () =
    let w0 = Gc.minor_words () in
    let xml = Middleware.xml_string_of p (Middleware.execute ~reduce:false p plan) in
    (Gc.minor_words () -. w0, xml)
  in
  let _, warm = run () in
  let a, xml_a = run () in
  let b, xml_b = run () in
  Alcotest.(check bool) "same XML" true (String.equal warm xml_a && String.equal xml_a xml_b);
  Alcotest.(check (float 0.0)) "same minor words" a b

let test_cursor_spool_empty () =
  let c = R.Cursor.spool (R.Cursor.empty cols) in
  Alcotest.(check bool) "empty" true (R.Cursor.next c = None)

let test_executor_cursor_matches_run () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.1) in
  let q =
    R.Sql_parser.parse
      "SELECT s.name AS n FROM Supplier AS s ORDER BY n"
  in
  let rel, st_mat = R.Executor.run_plan_with_stats db (R.Physical.plan_of db q) in
  let out, st_cur =
    R.Executor.run_plan_batches_with_stats db (R.Physical.plan_of db q)
  in
  Alcotest.(check bool) "same rows" true
    (R.Relation.equal rel
       (R.Cursor.to_relation (R.Cursor.of_batches (R.Relation.cols rel) out)));
  Alcotest.(check int) "same work" st_mat.R.Executor.work
    st_cur.R.Executor.work;
  Alcotest.(check int) "same emitted" st_mat.R.Executor.emitted
    st_cur.R.Executor.emitted

(* --- differential: spooled vs heap vs naive ------------------------------ *)

(* Small views: the full 2^|E| × {style} × {reduce} cross-product. *)
let test_full_cross_product view () =
  Matrix.(check [ slice view figure8 ~points:every_point ~modes:[ spooled ] ])

(* Q1/Q2: every plan under the default point, the full {style} ×
   {reduce} cross-product on a stride-4 subsample. *)
let test_exhaustive view () =
  let open Matrix in
  let points = [ oj_reduced; ou; ou_reduced ] in
  check
    [
      slice view (tpch 0.08) ~modes:[ spooled ];
      slice view (tpch 0.08) ~masks:(every 4) ~points ~modes:[ spooled ];
    ]

(* --- streaming sinks ---------------------------------------------------- *)

let test_to_channel_matches_string () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.1) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let plan = Partition.of_mask p.Middleware.tree 37 in
  let expected =
    Middleware.xml_string_of p (Middleware.execute ~spool:true p plan)
  in
  let path = Filename.temp_file "silkroute" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Middleware.stream_to_channel p (Middleware.execute ~spool:true p plan) oc;
      close_out oc;
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) "channel writer matches string writer" expected s)

let test_timeout_payload () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.3) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let plan = Partition.fully_partitioned p.Middleware.tree in
  let backend = R.Backend.create ~budget:50 db in
  match Middleware.execute ~backend p plan with
  | _ -> Alcotest.fail "tiny budget must time out"
  | exception Middleware.Plan_timeout info ->
      Alcotest.(check bool) "carries SQL" true
        (String.length info.Middleware.timeout_sql > 0);
      Alcotest.(check bool) "stream number in range, from 1" true
        (info.Middleware.timeout_stream >= 1
        && info.Middleware.timeout_stream <= Partition.stream_count plan);
      Alcotest.(check bool) "names the fragment root" true
        (String.length info.Middleware.timeout_root > 0);
      Alcotest.(check bool) "elapsed non-negative" true
        (info.Middleware.timeout_elapsed_ms >= 0.0);
      (* the spooled path reports the same failing stream *)
      (match Middleware.execute ~backend ~spool:true p plan with
      | _ -> Alcotest.fail "streaming path must time out too"
      | exception Middleware.Plan_timeout info' ->
          Alcotest.(check int) "same failing stream"
            info.Middleware.timeout_stream info'.Middleware.timeout_stream;
          Alcotest.(check string) "same root" info.Middleware.timeout_root
            info'.Middleware.timeout_root)

(* --- memory bound -------------------------------------------------------- *)

(* [Gc.stat] runs a full major collection itself (OCaml 5 gc.mli). *)
let live_words () = (Gc.stat ()).Gc.live_words

(* Sample live words through the sink while tagging; deltas are relative
   to a post-execution baseline.  The streaming path must tag without
   holding the result set; the materialized path necessarily retains
   every stream's relation. *)
let test_streaming_memory_bounded () =
  let scale = 0.3 in
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let plan = Partition.of_mask p.Middleware.tree 37 in
  let highwater run_tag =
    let base = live_words () in
    let hw = ref min_int and opens = ref 0 in
    let sample () =
      let d = live_words () - base in
      if d > !hw then hw := d
    in
    let sink =
      {
        Tagger.on_open =
          (fun _ ->
            incr opens;
            if !opens mod 200 = 0 then sample ());
        on_text = (fun _ -> ());
        on_close = (fun _ -> ());
      }
    in
    run_tag sink;
    sample ();
    !hw
  in
  let hw_streaming =
    let se = Middleware.execute ~spool:true p plan in
    highwater (fun sink ->
        Tagger.tag_cursors p.Middleware.tree (Middleware.cursors se) sink)
  in
  let hw_materialized =
    let e = Middleware.execute p plan in
    (* keep the execution record alive across tagging, as callers do *)
    let hw =
      highwater (fun sink ->
          Tagger.tag_cursors p.Middleware.tree (Middleware.cursors e) sink)
    in
    ignore (Sys.opaque_identity e);
    hw
  in
  Alcotest.(check bool)
    (Printf.sprintf "streaming hw %d words well below materialized %d"
       hw_streaming hw_materialized)
    true
    (hw_streaming * 4 < hw_materialized || hw_streaming <= 4096)

(* --- carried wire sizes -------------------------------------------- *)

(* The operators whose rows a plan delivers, or its Sort sorts: unions,
   filters and derived tables only pass rows on. *)
let rec producers (n : R.Physical.node) =
  match n.R.Physical.shape with
  | R.Physical.Sort { input; _ } | Filter { input; _ } | Derived { input; _ } ->
      producers input
  | Union ns -> List.concat_map producers ns
  | _ -> [ n ]

(* Every row a plan delivers carries its wire size, and the backend's
   counts are a recomputation from the delivered rows, float for
   float: every lattice point of q1/q2/q3 at scale 0.2, reduced or
   not, planned once and run heap-drained and spooled. *)
let test_carried_sizes () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let checked = Hashtbl.create 512 in
  let stream name mask reduce spool (se : Middleware.stream_exec) =
    let label =
      Printf.sprintf "%s, mask %d, reduce %b, spool %b: %s" name mask reduce spool
        se.se_sql
    in
    (* each distinct statement's own run, once *)
    if not (Hashtbl.mem checked se.se_sql) then begin
      Hashtbl.add checked se.se_sql ();
      List.iter
        (fun (n : R.Physical.node) ->
          match n.shape with
          | R.Physical.Scan _ -> Alcotest.failf "%s: a scan's rows reach the output" label
          | _ -> ())
        (producers se.se_plan.root);
      let out, _ = R.Executor.run_plan_batches_with_stats db se.se_plan in
      List.iter
        (R.Batch.iter (fun row b ->
             if b <> R.Tuple.wire_size row then
               Alcotest.failf "%s: a row carries %d bytes, its wire size is %d" label b
                 (R.Tuple.wire_size row)))
        out
    end;
    let bytes = List.map R.Tuple.wire_size (R.Cursor.to_list (se.se_cursor ())) in
    let ms =
      R.Transfer.stream_ms ~tuples:(List.length bytes)
        ~bytes:(List.fold_left ( + ) 0 bytes)
    in
    if se.se_rows <> List.length bytes then Alcotest.failf "%s: tuples" label;
    if se.se_bytes <> List.fold_left ( + ) 0 bytes then Alcotest.failf "%s: bytes" label;
    if Int64.bits_of_float se.se_transfer_ms <> Int64.bits_of_float ms then
      Alcotest.failf "%s: transfer %h ms, recomputed %h" label se.se_transfer_ms ms
  in
  List.iter
    (fun (name, text) ->
      let p = Middleware.prepare_text db text in
      List.iter
        (fun mask ->
          let plan = Partition.of_mask p.tree mask in
          List.iter
            (fun reduce ->
              let planned = Middleware.plan_streams ~reduce p plan in
              List.iter
                (fun spool ->
                  let e = Middleware.run ~spool planned in
                  List.iter (stream name mask reduce spool) e.per_stream)
                [ false; true ])
            [ false; true ])
        (Partition.all_masks p.tree))
    [ ("q1", Queries.query1_text); ("q2", Queries.query2_text); ("q3", Queries.query3_text) ]

(* A Sort over a UNION ALL of two output projections whose uncharged
   literals differ — NULL and 'supplier' in one branch, NULL and 'p' at
   other positions in the other — charges what emission charged: every
   row's wire size less its own branch's literals.  The sort buffer is
   small, so the charged bytes also price the spill passes. *)
let test_sort_over_union_charge () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.5) in
  let q =
    "(SELECT s.suppkey AS k, s.name AS a, NULL AS b, 'supplier' AS t FROM Supplier AS s) \
     UNION ALL (SELECT p.partkey AS k, NULL AS a, p.name AS b, 'p' AS t FROM Part AS p) \
     ORDER BY k, t"
  in
  let profile = { R.Executor.sort_buffer = 1024; byte_div = 16 } in
  let plan = R.Physical.plan_of db (R.Sql_parser.parse q) in
  let out, st = R.Executor.run_plan_batches_with_stats ~profile db plan in
  let size = R.Value.wire_size in
  let rows = ref 0 and charged = ref 0 in
  List.iter
    (R.Batch.iter (fun row b ->
         if b <> R.Tuple.wire_size row then
           Alcotest.failf "a row carries %d bytes, its wire size is %d" b
             (R.Tuple.wire_size row);
         incr rows;
         charged := !charged + b - size R.Value.Null - size row.(3)))
    out;
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n / 2) in
  let passes = max 1 (log2 0 (!charged / profile.sort_buffer)) in
  Alcotest.(check bool) "the sort spills" true (!charged > profile.sort_buffer);
  Alcotest.(check int) "the sort's charge"
    ((4 * !rows * max 1 (log2 0 !rows)) + (passes * (!charged / profile.byte_div)))
    st.actuals.cost.(plan.root.id);
  (* pinned: what the plan charged when each row carried only its charged
     bytes, so carrying the full sizes changes no charge *)
  Alcotest.(check int) "the plan's work" 3678 st.work

let suite =
  [
    Alcotest.test_case "cursor roundtrip" `Quick test_cursor_roundtrip;
    Alcotest.test_case "cursor spool roundtrip" `Quick test_cursor_spool_roundtrip;
    Alcotest.test_case "backend run counts heap and spooled rows" `Quick
      test_backend_run_counts;
    Alcotest.test_case "cursor spool empty" `Quick test_cursor_spool_empty;
    Alcotest.test_case "executor cursor = run" `Quick test_executor_cursor_matches_run;
    Alcotest.test_case "full cross-product (fragment)" `Quick
      (test_full_cross_product Matrix.fragment);
    Alcotest.test_case "full cross-product (mixed content)" `Quick
      (test_full_cross_product Matrix.mixed_content);
    Alcotest.test_case "full cross-product (forest)" `Quick
      (test_full_cross_product Matrix.forest);
    Alcotest.test_case "exhaustive plans streaming = materialized (Q1)" `Slow
      (test_exhaustive Matrix.q1);
    Alcotest.test_case "exhaustive plans streaming = materialized (Q2)" `Slow
      (test_exhaustive Matrix.q2);
    Alcotest.test_case "to_channel sink" `Quick test_to_channel_matches_string;
    Alcotest.test_case "timeout payload" `Quick test_timeout_payload;
    Alcotest.test_case "streaming memory bounded" `Quick test_streaming_memory_bounded;
    Alcotest.test_case "heap path allocates the same every run" `Quick
      test_allocation_deterministic;
    Alcotest.test_case "rows carry their wire size to the drain" `Quick
      test_carried_sizes;
    Alcotest.test_case "sort over a union charges what emission charged" `Quick
      test_sort_over_union_charge;
  ]
