(* The streaming pipeline (cursor execution, spooling, heap k-way merge):
   differential tests of spooled against heap-drained execution and the
   naive materialization, work-unit parity, and the memory bound. *)

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
  let seen = ref [] in
  let c =
    R.Cursor.spool
      ~on_row:(fun t -> seen := t :: !seen)
      (R.Cursor.of_list cols rows)
  in
  Alcotest.(check int) "on_row saw every tuple" (List.length rows)
    (List.length !seen);
  Alcotest.(check bool) "on_row in order" true
    (List.for_all2 R.Tuple.equal rows (List.rev !seen));
  let back = R.Cursor.to_list c in
  Alcotest.(check bool) "spool preserves rows and order" true
    (List.for_all2 R.Tuple.equal rows back);
  Alcotest.(check bool) "exhausted" true (R.Cursor.next c = None)

let test_cursor_spool_empty () =
  let c = R.Cursor.spool (R.Cursor.empty cols) in
  Alcotest.(check bool) "empty" true (R.Cursor.next c = None)

let test_executor_cursor_matches_run () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.1) in
  let q =
    R.Sql_parser.parse
      "SELECT s.name AS n FROM Supplier AS s ORDER BY n"
  in
  let rel, st_mat = R.Executor.run_with_stats db q in
  let cur, st_cur =
    R.Executor.run_plan_cursor_with_stats db (R.Physical.plan_of db q)
  in
  Alcotest.(check bool) "same rows" true
    (R.Relation.equal rel (R.Cursor.to_relation cur));
  Alcotest.(check int) "same work" st_mat.R.Executor.work
    st_cur.R.Executor.work;
  Alcotest.(check int) "same emitted" st_mat.R.Executor.emitted
    st_cur.R.Executor.emitted

(* --- differential: spooled vs heap vs naive ------------------------------ *)

let serialize = Xmlkit.Serialize.to_string

(* For one (plan, style, reduce) point: the spooled run must be
   byte-identical to the heap-drained run (buffer sinks) and to the
   naive materialization (document sinks), with equal work-unit counts
   and equal modeled accounting. *)
let check_point ?(check_naive = None) p mask style reduce =
  let plan = Partition.of_mask p.Middleware.tree mask in
  let label =
    Printf.sprintf "mask %d, %s, reduce=%b" mask
      (match style with Sql_gen.Outer_join -> "oj" | Sql_gen.Outer_union -> "ou")
      reduce
  in
  let e = Middleware.execute ~style ~reduce p plan in
  let se = Middleware.execute ~style ~reduce ~spool:true p plan in
  Alcotest.(check string)
    (label ^ ": byte-identical XML")
    (Middleware.xml_string_of p e)
    (Middleware.xml_string_of p se);
  Alcotest.(check int) (label ^ ": work units") e.Middleware.work
    se.Middleware.work;
  Alcotest.(check int) (label ^ ": tuples") e.Middleware.tuples
    se.Middleware.tuples;
  Alcotest.(check int) (label ^ ": bytes") e.Middleware.bytes
    se.Middleware.bytes;
  Alcotest.(check (float 0.0))
    (label ^ ": transfer model")
    e.Middleware.transfer_ms se.Middleware.transfer_ms;
  match check_naive with
  | None -> ()
  | Some truth ->
      (* spooled cursors are single-use: run the spooled path again for
         the document-sink comparison *)
      let se2 = Middleware.execute ~style ~reduce ~spool:true p plan in
      Alcotest.(check string)
        (label ^ ": byte-identical to naive")
        truth
        (serialize (Middleware.document_of p se2))

let variants = [ Sql_gen.Outer_join; Sql_gen.Outer_union ]

(* Small views: the full 2^|E| × {style} × {reduce} cross-product, each
   point also checked byte-for-byte against the naive materialization. *)
let full_cross_product text db =
  let p = Middleware.prepare_text db text in
  let truth = serialize (Middleware.materialize_naive p) in
  List.iter
    (fun mask ->
      List.iter
        (fun style ->
          List.iter
            (fun reduce ->
              check_point ~check_naive:(Some truth) p mask style reduce)
            [ false; true ])
        variants)
    (Partition.all_masks p.Middleware.tree)

let test_full_cross_product_fragment () =
  full_cross_product Queries.fragment_text (Tpch.Gen.figure8_database ())

let test_full_cross_product_mixed_content () =
  full_cross_product
    {|view v { from Nation $n construct
        <nation>$n.name
          { from Region $r where $n.regionkey = $r.regionkey
            construct <region>$r.name</region> } </nation> }|}
    (Tpch.Gen.figure8_database ())

let test_full_cross_product_forest () =
  full_cross_product
    {|view directory
      { from Supplier $s construct <supplier>$s.name</supplier> }
      { from Nation $n construct <nation>$n.name</nation> }|}
    (Tpch.Gen.figure8_database ())

(* Q1/Q2: every one of the 2^|E| plans under the default variant, the
   full {style} × {reduce} cross-product on a stride-4 subsample. *)
let exhaustive_sweep text =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.08) in
  let p = Middleware.prepare_text db text in
  List.iter
    (fun mask ->
      if mask mod 4 = 0 then
        List.iter
          (fun style ->
            List.iter
              (fun reduce -> check_point p mask style reduce)
              [ false; true ])
          variants
      else check_point p mask Sql_gen.Outer_join false)
    (Partition.all_masks p.Middleware.tree)

let test_exhaustive_q1 () = exhaustive_sweep Queries.query1_text
let test_exhaustive_q2 () = exhaustive_sweep Queries.query2_text

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
      Alcotest.(check string) "channel sink matches buffer sink" expected s)

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
      Alcotest.(check bool) "stream index in range" true
        (info.Middleware.timeout_stream >= 0
        && info.Middleware.timeout_stream < Partition.stream_count plan);
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

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

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

let suite =
  [
    Alcotest.test_case "cursor roundtrip" `Quick test_cursor_roundtrip;
    Alcotest.test_case "cursor spool roundtrip" `Quick test_cursor_spool_roundtrip;
    Alcotest.test_case "cursor spool empty" `Quick test_cursor_spool_empty;
    Alcotest.test_case "executor cursor = run" `Quick test_executor_cursor_matches_run;
    Alcotest.test_case "full cross-product (fragment)" `Quick test_full_cross_product_fragment;
    Alcotest.test_case "full cross-product (mixed content)" `Quick test_full_cross_product_mixed_content;
    Alcotest.test_case "full cross-product (forest)" `Quick test_full_cross_product_forest;
    Alcotest.test_case "exhaustive plans streaming = materialized (Q1)" `Slow test_exhaustive_q1;
    Alcotest.test_case "exhaustive plans streaming = materialized (Q2)" `Slow test_exhaustive_q2;
    Alcotest.test_case "to_channel sink" `Quick test_to_channel_matches_string;
    Alcotest.test_case "timeout payload" `Quick test_timeout_payload;
    Alcotest.test_case "streaming memory bounded" `Quick test_streaming_memory_bounded;
  ]
