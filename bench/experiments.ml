(* The paper's experiments, one function per table/figure.  See
   DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
   discussion. *)

module R = Relational
module S = Silkroute
open Bench_common

(* A full 512-plan sweep for one query under one variant. *)
let sweep ?style ?reduce ?budget p =
  List.map (fun mask -> measure ?style ?reduce ?budget p mask)
    (S.Partition.all_masks p.S.Middleware.tree)

(* --- Table 1: configurations (E7) -------------------------------------- *)

let table1 () =
  print_header "Table 1: experimental configurations";
  List.iter
    (fun cfg ->
      let db = Tpch.Gen.generate (Tpch.Gen.config cfg.scale) in
      print_config db cfg)
    [ config_a; config_b ];
  Printf.printf
    "(The paper used 1 MB / 100 MB TPC-H databases on late-90s hardware;\n\
    \ we keep the small:large shape on the in-memory engine.)\n"

(* --- Sec. 2 table: 10 / 5 / 1 queries (E1) ------------------------------ *)

let sec2 () =
  print_header "Sec. 2 table: total and query-only time by plan (Query 1)";
  let db, p = prepare config_a S.Queries.query1_text in
  print_config db config_a;
  let all = sweep p in
  let fully = List.find (fun m -> m.mask = 0) all in
  let unified = List.find (fun m -> m.mask = 511) all in
  let five_stream = List.filter (fun m -> m.streams = 5) all in
  let best5 =
    List.fold_left
      (fun acc m -> if m.total_ms < acc.total_ms then m else acc)
      (List.hd five_stream) five_stream
  in
  Printf.printf "\n%-24s %12s %12s\n" "plan (No. of queries)" "Total(ms)" "Query(ms)";
  let row name (m : measurement) =
    Printf.printf "%-24s %12.1f %12.1f\n" name m.total_ms m.query_ms
  in
  row "10 (fully partitioned)" fully;
  row "5  (best 5-query plan)" best5;
  row "1  (unified)" unified;
  Printf.printf
    "\nPaper (100MB): 10 queries 1837s/584s, 5 queries 592s/244s, 1 query\n\
     2729s/1234s — the intermediate plan wins on both measures.\n";
  Printf.printf "Here: best-5 vs fully-partitioned total %.2fx, vs unified total %.2fx\n"
    (ratio fully.total_ms best5.total_ms)
    (ratio unified.total_ms best5.total_ms)

(* --- Figs. 13/14: exhaustive sweeps (E2, E3) ---------------------------- *)

let fig13_14 ~figure ~qname text dtd =
  print_header
    (Printf.sprintf "Figure %s: %s, Configuration A', 512 plans" figure qname);
  let db, p = prepare config_a text in
  print_config db config_a;
  (* sanity: the unified plan's document is DTD-valid *)
  let e = S.Middleware.execute p (S.Partition.unified p.S.Middleware.tree) in
  let doc = S.Middleware.document_of p e in
  Printf.printf "Output: %d XML elements, DTD-valid: %b\n"
    (Xmlkit.Xml.count_elements doc)
    (Xmlkit.Validate.is_valid dtd doc);

  let plain = sweep p in
  let reduced = sweep ~reduce:true p in
  print_figure ~caption:(Printf.sprintf "(a) Query-only time, no reduction [sim ms]")
    plain ~value:(fun m -> m.query_ms);
  print_figure ~caption:"(b) Query-only time, with view-tree reduction [sim ms]"
    reduced ~value:(fun m -> m.query_ms);
  print_figure ~caption:"(c) Total time, with view-tree reduction [sim ms]"
    reduced ~value:(fun m -> m.total_ms);

  (* headline ratios of the paper's Sec. 4 *)
  let q = fun (m : measurement) -> m.query_ms in
  let t = fun (m : measurement) -> m.total_ms in
  let find mask l = List.find (fun m -> m.mask = mask) l in
  let unified_ou = measure ~style:S.Sql_gen.Outer_union p 511 in
  let opt_plain = best_of plain ~value:q in
  let opt_red = best_of reduced ~value:q in
  let ten_plain = kth_best plain ~value:q 10 in
  let ten_red = kth_best reduced ~value:q 10 in
  Printf.printf "\nHeadline comparisons (query-only time unless noted):\n";
  Printf.printf
    "  non-reduced: unified outer-union %.2fx optimal, fully partitioned %.2fx optimal\n"
    (ratio unified_ou.query_ms opt_plain)
    (ratio (find 0 plain).query_ms opt_plain);
  Printf.printf "    (paper: 16-21%% and 24-41%% slower)\n";
  Printf.printf "  ten fastest reduced plans %.2fx faster than ten fastest non-reduced\n"
    (ratio ten_plain ten_red);
  Printf.printf "    (paper: 2.5x)\n";
  Printf.printf
    "  reduced optimal vs unified outer-union %.2fx, vs fully partitioned %.2fx\n"
    (ratio unified_ou.query_ms opt_red)
    (ratio (find 0 reduced).query_ms opt_red);
  Printf.printf "    (paper: optimal 2.6-4.3x faster)\n";
  let opt_red_total = best_of reduced ~value:t in
  Printf.printf
    "  total time: unified outer-union %.2fx optimal, fully partitioned %.2fx optimal\n"
    (ratio unified_ou.total_ms opt_red_total)
    (ratio (find 0 reduced).total_ms opt_red_total);
  Printf.printf "    (paper: 4-4.8x and 3-3.7x)\n"

let fig13 () = fig13_14 ~figure:"13" ~qname:"Query 1" S.Queries.query1_text S.Queries.dtd_query1
let fig14 () = fig13_14 ~figure:"14" ~qname:"Query 2" S.Queries.query2_text S.Queries.dtd_query2

(* --- Fig. 15: Configuration B, greedy plans (E4) ------------------------ *)

let fig15_one ~panel ~qname text =
  Printf.printf "\n(%s) %s\n" panel qname;
  let _, p = prepare config_b text in
  let result = S.Middleware.gen_plan p ~reduce:true in
  let plans = S.Planner.plans_of p.S.Middleware.tree result in
  Printf.printf "genPlan: %s\n" (S.Planner.to_string p.S.Middleware.tree result);
  Printf.printf "%d generated plans (2^%d optional-edge subsets)\n"
    (List.length plans) (List.length result.S.Planner.optional);
  let ms =
    List.map
      (fun plan -> measure ~reduce:true p (S.Partition.to_mask plan))
      plans
  in
  print_figure ~caption:"generated plans [sim ms]" ms ~value:(fun m -> m.query_ms);
  print_figure ~caption:"generated plans, total time [sim ms]" ms
    ~value:(fun m -> m.total_ms);
  let unified_ou = measure ~style:S.Sql_gen.Outer_union p 511 in
  let fully = measure ~reduce:true p 0 in
  let opt_q = best_of ms ~value:(fun m -> m.query_ms) in
  let opt_t = best_of ms ~value:(fun m -> m.total_ms) in
  Printf.printf "baselines: unified outer-union query %.1f total %.1f;\n"
    unified_ou.query_ms unified_ou.total_ms;
  Printf.printf "           fully partitioned   query %.1f total %.1f\n"
    fully.query_ms fully.total_ms;
  Printf.printf
    "ratios: outer-union %.2fx / fully partitioned %.2fx slower than best\n"
    (ratio unified_ou.query_ms opt_q)
    (ratio fully.query_ms opt_q);
  Printf.printf "    (paper Q1: 5x / 2.4x, Q2: 4.7x / 2.6x; totals 4.6x / 3.1x)\n";
  Printf.printf "total-time ratios: outer-union %.2fx / fully partitioned %.2fx\n"
    (ratio unified_ou.total_ms opt_t)
    (ratio fully.total_ms opt_t)

let fig15 () =
  print_header "Figure 15: Configuration B', greedy plans, with reduction";
  let db = Tpch.Gen.generate (Tpch.Gen.config config_b.scale) in
  print_config db config_b;
  fig15_one ~panel:"a" ~qname:"Query 1" S.Queries.query1_text;
  fig15_one ~panel:"b" ~qname:"Query 2" S.Queries.query2_text

(* --- Fig. 18: plans selected by the greedy algorithm (E5) --------------- *)

(* [f p ~reduce label] for Queries 1 and 2 at Config A', non-reduced
   then reduced; [label] names the run ("Query 1 (reduced)    "). *)
let each_query_reduce f =
  let db, _ = prepare config_a S.Queries.query1_text in
  List.iter
    (fun (qname, text) ->
      let p = S.Middleware.prepare_text db text in
      List.iter
        (fun reduce ->
          f p ~reduce
            (Printf.sprintf "%s %s" qname
               (if reduce then "(reduced)    " else "(non-reduced)")))
        [ false; true ])
    [ ("Query 1", S.Queries.query1_text); ("Query 2", S.Queries.query2_text) ]

let fig18 () =
  print_header "Figure 18: plans selected by the greedy algorithm";
  each_query_reduce (fun p ~reduce label ->
      let r = S.Middleware.gen_plan p ~reduce in
      Printf.printf "%s: %s\n" label (S.Planner.to_string p.S.Middleware.tree r);
      Printf.printf "  -> family of %d plans\n"
        (1 lsl List.length r.S.Planner.optional));
  Printf.printf
    "(paper: 32 plans for Config A, 16 for Q1 / 8 for Q2 at Config B)\n"

(* --- Sec. 5.1: greedy plan ranks within the exhaustive sweep ------------ *)

(* Ranks (1 = fastest untimed plan of the sweep [all]) of genPlan's
   plan family [r], ascending; -1 marks a plan the sweep did not rank. *)
let family_ranks (p : S.Middleware.prepared) all r =
  let sorted =
    List.sort
      (fun a b -> compare a.query_ms b.query_ms)
      (List.filter (fun m -> not m.timed_out) all)
  in
  let rank_of mask =
    let rec go i = function
      | [] -> -1
      | m :: rest -> if m.mask = mask then i else go (i + 1) rest
    in
    go 1 sorted
  in
  List.sort compare
    (List.map
       (fun plan -> rank_of (S.Partition.to_mask plan))
       (S.Planner.plans_of p.S.Middleware.tree r))

let ranks () =
  print_header "Sec. 5.1: rank of generated plans within all 512 (Config A')";
  each_query_reduce (fun p ~reduce label ->
      let ranks =
        family_ranks p (sweep ~reduce p) (S.Middleware.gen_plan p ~reduce)
      in
      Printf.printf "%s: ranks %s\n" label
        (String.concat "," (List.map string_of_int ranks)));
  Printf.printf
    "(paper: generated plans = the 32 fastest; Q2 reduced = first 31 and 34th)\n"

(* --- Sec. 5.1: cost-estimate request counts (E6) ------------------------ *)

let requests () =
  print_header "Sec. 5.1: cost-estimate requests issued by genPlan";
  each_query_reduce (fun p ~reduce label ->
      let r = S.Middleware.gen_plan p ~reduce in
      Printf.printf "%s: %d requests, %d cache hits (worst case |E|^2 = 81)\n"
        label r.S.Planner.requests r.S.Planner.cache_hits);
  Printf.printf "(paper: 22 non-reduced, 25 reduced)\n"

(* --- ablation: the transfer model and sort-spill model ------------------ *)

let ablation () =
  print_header "Ablation: what makes the unified plan slow here";
  let _, p = prepare config_a S.Queries.query1_text in
  let profile_default = R.Executor.default_profile in
  let profile_no_spill = { profile_default with R.Executor.sort_buffer = max_int } in
  let run profile mask reduce =
    let plan = S.Partition.of_mask p.S.Middleware.tree mask in
    let backend = R.Backend.create ~profile p.S.Middleware.db in
    (S.Middleware.execute ~reduce ~backend p plan).S.Middleware.work
  in
  Printf.printf "%-28s %14s %14s\n" "plan" "work(default)" "work(no spill)";
  List.iter
    (fun (name, mask) ->
      Printf.printf "%-28s %14d %14d\n" name
        (run profile_default mask false)
        (run profile_no_spill mask false))
    [ ("unified (1 stream)", 511); ("fully partitioned (10)", 0) ];
  Printf.printf
    "Disabling the external-sort spill model shrinks the unified plan's\n\
     penalty — the effect the paper attributes to sort spills (Sec. 7).\n";
  (* Sec. 7's prediction: "assuming that the target database has
     plentiful memory ... the resulting outer-union plan is likely to be
     comparable to SilkRoute's generated optimal plans".  Sweep the sort
     buffer and watch the unified/optimal gap close. *)
  Printf.printf "\nSort-buffer sweep (reduced plans, Query 1):\n";
  Printf.printf "%12s %12s %12s %8s\n" "buffer" "unified" "best-3stream" "ratio";
  let best3_mask =
    (* cut the three *-labeled-ish edges: keep everything except
       S1-S1.4 and S1.4-S1.4.2 plus one supplier edge — find the best
       3-stream plan empirically at the default profile *)
    let best = ref (-1) and bw = ref max_int in
    List.iter
      (fun mask ->
        let plan = S.Partition.of_mask p.S.Middleware.tree mask in
        if S.Partition.stream_count plan = 3 then begin
          let w = (S.Middleware.execute ~reduce:true p plan).S.Middleware.work in
          if w < !bw then begin
            bw := w;
            best := mask
          end
        end)
      (S.Partition.all_masks p.S.Middleware.tree);
    !best
  in
  List.iter
    (fun buffer ->
      let profile = { R.Executor.default_profile with R.Executor.sort_buffer = buffer } in
      let unified = run profile 511 true in
      let best3 =
        let plan = S.Partition.of_mask p.S.Middleware.tree best3_mask in
        let backend = R.Backend.create ~profile p.S.Middleware.db in
        (S.Middleware.execute ~reduce:true ~backend p plan).S.Middleware.work
      in
      Printf.printf "%10dKB %12d %12d %8.2f\n" (buffer / 1024) unified best3
        (float_of_int unified /. float_of_int best3))
    [ 8 * 1024; 16 * 1024; 32 * 1024; 64 * 1024; 256 * 1024; 4 * 1024 * 1024 ];
  Printf.printf
    "With plentiful sort memory the unified plan narrows the gap (the\n\
     residue is NULL-padding width), as Sec. 7 predicts.\n"

(* --- beyond the paper: threshold transfer to a third query -------------- *)

let extra () =
  print_header
    "Extension: Query 3 (Sec. 5.1 future work) — do the fixed thresholds transfer?";
  let db, p = prepare config_a S.Queries.query3_text in
  print_config db config_a;
  Printf.printf
    "Query 3: customer -> (name, nation, order* -> (orderkey, item+ -> (part, qty)))
     The order->item edge is '+' (declared inclusion), enabling the
     guaranteed-branch inner-join optimization.
";
  let all = sweep ~reduce:true p in
  print_figure ~caption:"Query-only time, with reduction [sim ms]" all
    ~value:(fun m -> m.query_ms);
  let r = S.Middleware.gen_plan p ~reduce:true in
  Printf.printf "genPlan (same default a,b,t1,t2): %s
"
    (S.Planner.to_string p.S.Middleware.tree r);
  Printf.printf "ranks of generated plans (of %d): %s
" (List.length all)
    (String.concat "," (List.map string_of_int (family_ranks p all r)));
  let unified_ou = measure ~style:S.Sql_gen.Outer_union p ((1 lsl 7) - 1) in
  let fully = measure ~reduce:true p 0 in
  let best = best_of all ~value:(fun m -> m.query_ms) in
  Printf.printf
    "unified outer-union %.2fx / fully partitioned %.2fx slower than optimal
"
    (ratio unified_ou.query_ms best)
    (ratio fully.query_ms best)

(* --- tentpole check: the rewrite layer may only lower the bill ---------- *)

(* Differential sweep of the Fig. 13 configuration: every plan of
   Query 1, both reduce modes, each generated stream executed through
   the plan-based path (lower → rewrite → physical) and through the seed
   AST interpreter.  Projection pruning and predicate pushdown must be
   wins or no-ops — identical relations for no more work — and the
   experiment exits non-zero on any violation so CI can gate on it. *)
let pruning () =
  print_header
    "Pruning: plan path vs seed interpreter (Fig. 13 sweep, Query 1)";
  let db, p = prepare config_a S.Queries.query1_text in
  print_config db config_a;
  let tree = p.S.Middleware.tree in
  let violations = ref 0 in
  List.iter
    (fun reduce ->
      let opts =
        {
          S.Sql_gen.style = S.Sql_gen.Outer_join;
          labels = (if reduce then Some p.S.Middleware.labels else None);
        }
      in
      let new_total = ref 0
      and legacy_total = ref 0
      and wins = ref 0
      and streams_n = ref 0 in
      List.iter
        (fun mask ->
          let plan = S.Partition.of_mask tree mask in
          List.iter
            (fun s ->
              let q = s.S.Sql_gen.query in
              let r_new, st_new =
                R.Executor.run_plan_with_stats db (R.Physical.plan_of db q)
              in
              let r_old, st_old = Oracle.Legacy.run_with_stats db q in
              incr streams_n;
              if r_new <> r_old then begin
                incr violations;
                Printf.printf "!! mask=%d reduce=%b: outputs differ\n" mask
                  reduce
              end;
              if st_new.R.Executor.work > st_old.R.Executor.work then begin
                incr violations;
                Printf.printf "!! mask=%d reduce=%b: new work %d > seed %d\n"
                  mask reduce st_new.R.Executor.work st_old.R.Executor.work
              end;
              if st_new.R.Executor.work < st_old.R.Executor.work then
                incr wins;
              new_total := !new_total + st_new.R.Executor.work;
              legacy_total := !legacy_total + st_old.R.Executor.work)
            (S.Sql_gen.streams db tree plan opts))
        (S.Partition.all_masks tree);
      Printf.printf
        "%s: %d streams; work %d (plan path) vs %d (seed) — %.1f%% saved; \
         strictly cheaper on %d streams\n"
        (if reduce then "reduced    " else "non-reduced")
        !streams_n !new_total !legacy_total
        (100.0 *. (1.0 -. (float_of_int !new_total /. float_of_int !legacy_total)))
        !wins)
    [ false; true ];
  if !violations > 0 then begin
    Printf.printf
      "\n%d VIOLATIONS — a rewrite raised the bill or changed an output\n"
      !violations;
    exit 1
  end
  else
    Printf.printf
      "\nEvery plan: identical output, work(plan path) <= work(seed).\n"

(* --- tentpole check: cost-oracle calibration ---------------------------- *)

(* The oracle prices the same physical plan the engine runs, so its
   per-operator estimates can be compared to the executor's meter
   readings node by node.  q-error = max(est/act, act/est) with both
   sides clamped to >= 1; 1.00 is a perfect estimate. *)
let calibration () =
  print_header
    "Calibration: cost-oracle estimates vs executor actuals, per operator";
  let db, _ = prepare config_a S.Queries.query1_text in
  print_config db config_a;
  let stats = R.Stats.analyze db in
  (* per operator kind: node count, sum of log q-errors (rows, cost),
     worst q-errors *)
  let acc = Hashtbl.create 8 in
  let note op rq cq =
    let n, slr, mxr, slc, mxc =
      match Hashtbl.find_opt acc op with
      | Some x -> x
      | None ->
          let x = (ref 0, ref 0.0, ref 1.0, ref 0.0, ref 1.0) in
          Hashtbl.add acc op x;
          x
    in
    incr n;
    slr := !slr +. Float.log rq;
    if rq > !mxr then mxr := rq;
    slc := !slc +. Float.log cq;
    if cq > !mxc then mxc := cq
  in
  let streams_n = ref 0 in
  let sum_log_total = ref 0.0 and worst_total = ref 1.0 in
  List.iter
    (fun (_qname, text) ->
      let p = S.Middleware.prepare_text db text in
      let p = { p with S.Middleware.stats = Lazy.from_val stats } in
      let tree = p.S.Middleware.tree in
      List.iter
        (fun reduce ->
          let plans =
            List.map
              (S.Middleware.partition_of ~reduce p)
              S.Middleware.[ Unified; Fully_partitioned; Greedy ]
          in
          List.iter
            (fun style ->
              let opts =
                {
                  S.Sql_gen.style;
                  labels =
                    (if reduce then Some p.S.Middleware.labels else None);
                }
              in
              List.iter
                (fun plan ->
                  List.iter
                    (fun s ->
                      let phys = R.Physical.plan_of db s.S.Sql_gen.query in
                      let est, ests = R.Cost.annotate stats phys in
                      let _, st = R.Executor.run_plan_with_stats db phys in
                      incr streams_n;
                      let tq =
                        Obs.Diagnose.qerror ~est:est.R.Cost.eval_cost
                          ~act:(float_of_int st.R.Executor.work)
                      in
                      sum_log_total := !sum_log_total +. Float.log tq;
                      if tq > !worst_total then worst_total := tq;
                      List.iter
                        (fun (d : Obs.Diagnose.sample) ->
                          note d.d_op
                            (Obs.Diagnose.qerror ~est:d.d_est_rows
                               ~act:(float_of_int d.d_act_rows))
                            (Obs.Diagnose.qerror ~est:d.d_est_cost
                               ~act:(float_of_int d.d_act_cost)))
                        (R.Physical.diagnose_samples ~stream:"" phys ests
                           st.R.Executor.actuals))
                    (S.Sql_gen.streams db tree plan opts))
                plans)
            [ S.Sql_gen.Outer_join; S.Sql_gen.Outer_union ])
        [ false; true ])
    [
      ("Query 1", S.Queries.query1_text);
      ("Query 2", S.Queries.query2_text);
      ("Query 3", S.Queries.query3_text);
    ];
  Printf.printf "\n%-12s %6s %11s %11s %11s %11s\n" "operator" "nodes"
    "rows q-geo" "rows q-max" "cost q-geo" "cost q-max";
  let keys = Hashtbl.fold (fun k _ l -> k :: l) acc [] |> List.sort compare in
  List.iter
    (fun k ->
      let n, slr, mxr, slc, mxc = Hashtbl.find acc k in
      Printf.printf "%-12s %6d %11.2f %11.2f %11.2f %11.2f\n" k !n
        (exp (!slr /. float_of_int !n))
        !mxr
        (exp (!slc /. float_of_int !n))
        !mxc)
    keys;
  Printf.printf
    "\n%d streams (q1/q2/q3 x unified/fully/greedy-best x both styles x both\n\
     reduce modes); whole-stream eval-cost q-error: geo-mean %.2f, worst %.2f\n"
    !streams_n
    (exp (!sum_log_total /. float_of_int !streams_n))
    !worst_total;
  Printf.printf
    "(Scans are exact by construction; joins price their key and FK\n\
     columns as one key, other conjuncts as independent.\n\
     test/test_calibration.ml fails the suite if these drift.)\n"

(* --- beyond the paper: resilience under a faulty backend ---------------- *)

(* Total time vs fault rate for the unified plan of Query 1, run through
   the resilient backend.  The work budget is set between the largest
   single-node stream and the unified query (2x the former), so the
   unified plan always times out and degrades through the plan lattice,
   while the finer sub-queries it falls back to always fit.  All times
   are simulated: engine work (winning + wasted attempts) over
   [work_per_ms], plus modeled transfer, plus the modeled backoff of
   retries. *)
let resilience () =
  print_header "Resilience: total time vs fault rate (Query 1, unified plan)";
  let db, p = prepare config_a S.Queries.query1_text in
  print_config db config_a;
  let tree = p.S.Middleware.tree in
  let unified = S.Partition.unified tree in
  let baseline = S.Middleware.execute p unified in
  let baseline_xml = S.Middleware.xml_string_of p baseline in
  let fully = S.Middleware.execute p (S.Partition.fully_partitioned tree) in
  let max_node_work =
    List.fold_left
      (fun acc se -> max acc se.S.Middleware.se_stats.R.Executor.work)
      0 fully.S.Middleware.per_stream
  in
  let budget = 2 * max_node_work in
  assert (baseline.S.Middleware.work > budget);
  Printf.printf
    "budget %d work units/sub-query (unified needs %d -> must degrade)\n\n"
    budget baseline.S.Middleware.work;
  Printf.printf "%6s %8s %8s %8s %8s %9s %10s %11s %10s\n" "rate" "attempts"
    "retries" "faults" "degraded" "backoff" "wasted" "total[ms]" "identical";
  List.iter
    (fun rate ->
      let backend =
        R.Backend.create
          ~faults:(R.Backend.faults ~seed:14 rate)
          ~retries:8
          ~budget db
      in
      let e = S.Middleware.execute ~backend ~max_splits:8 p unified in
      let xml = S.Middleware.xml_string_of p e in
      let res = e.S.Middleware.resilience in
      let total =
        sim_query_ms (e.S.Middleware.work + res.R.Backend.wasted_work)
        +. e.S.Middleware.transfer_ms +. res.R.Backend.backoff_ms
      in
      Printf.printf "%6.2f %8d %8d %8d %8d %9.1f %10d %11.1f %10s\n" rate
        res.R.Backend.attempts res.R.Backend.retries
        (R.Backend.total_faults res) e.S.Middleware.degraded
        res.R.Backend.backoff_ms res.R.Backend.wasted_work total
        (if xml = baseline_xml then "yes" else "NO!"))
    [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ];
  Printf.printf
    "\nOutput stays byte-identical at every fault rate; the cost of a flaky\n\
     backend is retries (backoff + wasted work), never correctness.\n"

(* --- Scaling: sub-query fan-out over a domain pool ----------------------- *)

let wall_repeats = 9

(* Median wall-clock ms of [f ()] over [wall_repeats] runs after one
   warm-up run, with tracing off so the figure is the untraced path. *)
let median_wall_ms f =
  Obs.Control.with_enabled false (fun () ->
      ignore (f ());
      let times =
        List.init wall_repeats (fun _ ->
            let t0 = Obs.Clock.now_ns () in
            ignore (f ());
            Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0))
      in
      List.nth (List.sort compare times) (wall_repeats / 2))

let scaling () =
  print_header "Scaling: sub-query fan-out, Query 1, fully partitioned plan";
  let db, p = prepare config_a S.Queries.query1_text in
  print_config db config_a;
  let plan = S.Partition.fully_partitioned p.S.Middleware.tree in
  let seq = S.Middleware.execute p plan in
  let seq_xml = S.Middleware.xml_string_of p seq in
  Printf.printf "%d streams; per-stream work: %s\n"
    (List.length seq.S.Middleware.per_stream)
    (String.concat " "
       (List.map
          (fun se -> string_of_int se.S.Middleware.se_stats.R.Executor.work)
          seq.S.Middleware.per_stream));
  Printf.printf
    "%d cores available, OCaml %s; wall = median of %d untraced execute + \
     tag runs after a warm-up\n\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version wall_repeats;
  Printf.printf "%8s %10s %8s %10s %10s %10s\n" "domains" "wall[ms]" "vs 1"
    "work" "tuples" "identical";
  let wall1 = ref nan in
  List.iter
    (fun d ->
      R.Domain_pool.with_pool ~domains:d (fun pool ->
          let run () =
            let e = S.Middleware.execute ~pool p plan in
            (e, S.Middleware.xml_string_of p e)
          in
          let e, xml = run () in
          let identical =
            xml = seq_xml
            && e.S.Middleware.work = seq.S.Middleware.work
            && e.S.Middleware.tuples = seq.S.Middleware.tuples
            && e.S.Middleware.bytes = seq.S.Middleware.bytes
            && e.S.Middleware.transfer_ms = seq.S.Middleware.transfer_ms
          in
          let ms = median_wall_ms run in
          if d = 1 then wall1 := ms;
          Printf.printf "%8d %10.2f %8.2f %10d %10d %10s\n" d ms (!wall1 /. ms)
            e.S.Middleware.work e.S.Middleware.tuples
            (if identical then "yes" else "NO!")))
    [ 1; 2; 4; 8 ];
  Printf.printf
    "\nOne pool per size.  \"vs 1\" is wall@1 / wall@N: above 1 the fan-out \
     pays,\nbelow 1 it costs.  Output, work, tuples, bytes and transfer are \
     byte-exact\nat every pool size.\n"

let all () =
  table1 ();
  sec2 ();
  fig13 ();
  fig14 ();
  fig15 ();
  fig18 ();
  ranks ();
  requests ();
  ablation ();
  extra ();
  pruning ();
  calibration ();
  resilience ();
  scaling ()
