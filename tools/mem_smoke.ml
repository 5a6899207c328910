(* Memory smoke check (tools/ci.sh): materialize a scaled TPC-H view
   under both execution paths and verify the streaming path's live-heap
   high-water mark during tagging is bounded by the view-tree depth plus
   the merge-heap state — not by the database (result) size — while the
   materialized path's grows with scale because it retains every
   stream's relation end to end.

   Live words are sampled through the tagger sink every [sample_every]
   opened elements, relative to a baseline taken after query execution
   setup; [Gc.stat] runs a full major collection first (OCaml 5 gc.mli),
   which makes the numbers deterministic. *)

module R = Relational
module S = Silkroute

let sample_every = 500

let live_words () = (Gc.stat ()).Gc.live_words

(* High-water live words observed while tagging [run_tag ()], relative
   to [base]. *)
let tag_highwater base run_tag =
  let hw = ref 0 and opens = ref 0 in
  let sample () =
    let d = live_words () - base in
    if d > !hw then hw := d
  in
  let sink =
    {
      S.Tagger.on_open =
        (fun _ ->
          incr opens;
          if !opens mod sample_every = 0 then sample ());
      on_text = (fun _ -> ());
      on_close = (fun _ -> ());
    }
  in
  run_tag sink;
  sample ();
  (!hw, !opens)

let prepare scale =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  let p = S.Middleware.prepare_text db S.Queries.query1_text in
  let plan = S.Partition.of_mask p.S.Middleware.tree 37 in
  (p, plan)

let streaming_highwater scale =
  let p, plan = prepare scale in
  let base = live_words () in
  let e = S.Middleware.execute ~spool:true p plan in
  let hw, opens =
    tag_highwater base (fun sink ->
        S.Tagger.tag_cursors p.S.Middleware.tree (S.Middleware.cursors e) sink)
  in
  (hw, opens, e.S.Middleware.tuples)

let materialized_highwater scale =
  let p, plan = prepare scale in
  let base = live_words () in
  let e = S.Middleware.execute p plan in
  let hw, opens =
    tag_highwater base (fun sink ->
        S.Tagger.tag_cursors p.S.Middleware.tree (S.Middleware.cursors e) sink)
  in
  (hw, opens, e.S.Middleware.tuples)

(* --- spool-file hygiene ------------------------------------------------ *)

(* Streaming/resilient runs spool every sub-query result to a
   silkroute*.spool temp file.  The files must never outlive the call:
   on success each is deleted when its last tuple is read; on failure
   (a later stream hits the plan timeout) the completed streams'
   cursors are closed, which deletes their files eagerly. *)
let spool_files () =
  let dir = Filename.get_temp_dir_name () in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.length f >= 9
         && String.sub f 0 9 = "silkroute"
         && Filename.check_suffix f ".spool")
  |> List.sort compare

let check_no_spool_leak () =
  let fail fmt =
    Printf.ksprintf (fun s -> prerr_endline ("mem-smoke FAIL: " ^ s); exit 1) fmt
  in
  let before = spool_files () in
  let p, plan = prepare 0.1 in
  (* happy path: stream, then drain every cursor to the end *)
  let e = S.Middleware.execute ~spool:true p plan in
  ignore (S.Middleware.xml_string_of p e);
  (* timeout path, streaming: the heaviest stream blows the per-query
     budget mid-plan; the completed streams' spools must be closed.
     Budget = half the heaviest stream's work, so lighter streams
     complete and the heavy one times out. *)
  let fully = S.Partition.fully_partitioned p.S.Middleware.tree in
  let probe = S.Middleware.execute p fully in
  let budget =
    List.fold_left
      (fun acc se -> max acc se.S.Middleware.se_stats.R.Executor.work)
      0 probe.S.Middleware.per_stream
    / 2
  in
  let backend = R.Backend.create ~budget p.S.Middleware.db in
  let timeouts = ref 0 in
  (* without degradation, then with it (sequential and fanned out):
     single-node fragments cannot degrade further, so the budget hit
     surfaces as Plan_timeout after several streams already spooled *)
  List.iter
    (fun (max_splits, domains) ->
      try
        R.Domain_pool.with_pool ~domains (fun pool ->
            ignore
              (S.Middleware.execute ~backend ~max_splits ~spool:true ~pool p
                 fully))
      with S.Middleware.Plan_timeout _ -> incr timeouts)
    [ (0, 1); (8, 1); (8, 4) ];
  if !timeouts <> 3 then
    fail "spool-leak check not meaningful: %d/3 runs hit the plan timeout"
      !timeouts;
  let after = spool_files () in
  if before <> after then
    fail "leftover spool files after timeout runs: [%s] (before: [%s])"
      (String.concat "; " after)
      (String.concat "; " before);
  Printf.printf
    "mem-smoke OK: no silkroute*.spool files left behind (%d timeout runs)\n"
    !timeouts

let () =
  let small_scale = 0.1 and large_scale = 0.4 in
  let s_small, _, t_small = streaming_highwater small_scale in
  let s_large, _, t_large = streaming_highwater large_scale in
  let m_large, _, _ = materialized_highwater large_scale in
  Printf.printf
    "mem-smoke: streaming hw %d words (%d tuples) @%.1f, %d words (%d \
     tuples) @%.1f; materialized hw %d words @%.1f\n"
    s_small t_small small_scale s_large t_large large_scale m_large
    large_scale;
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("mem-smoke FAIL: " ^ s); exit 1) fmt in
  if t_large < 2 * t_small then
    fail "test not meaningful: tuple count did not grow with scale (%d -> %d)"
      t_small t_large;
  (* The materialized path retains every stream's relation while
     tagging; the streaming path must live well below that. *)
  if not (s_large * 4 < m_large) then
    fail "streaming high-water %d words is not well below materialized %d"
      s_large m_large;
  (* Row count grew >= 2x across scales; streaming live memory must not
     track it.  Allow generous constant slack (spool buffers, heap,
     pending lists) but nothing proportional to the result. *)
  if not (s_large < s_small + (s_small / 2) + 65_536) then
    fail "streaming high-water grew with database size: %d @%.1f vs %d @%.1f"
      s_large large_scale s_small small_scale;
  print_endline "mem-smoke OK: streaming live memory independent of row count";
  check_no_spool_leak ()
