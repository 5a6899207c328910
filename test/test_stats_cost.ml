(* Statistics collection and the cost/cardinality oracle. *)

open Relational

let i n = Value.Int n

let mkdb () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "R" ~key:[ "a" ]
       [ Schema.column "a" Value.TInt; Schema.column "b" Value.TInt;
         Schema.column ~nullable:true "c" Value.TString ]);
  Database.load db "R"
    (List.init 100 (fun k ->
         [| i k; i (k mod 10);
            (if k mod 4 = 0 then Value.Null else Value.String "str") |]));
  Database.add_table db
    (Schema.table "T" ~key:[ "x" ]
       [ Schema.column "x" Value.TInt; Schema.column "r" Value.TInt ]);
  Database.load db "T" (List.init 500 (fun k -> [| i k; i (k mod 100) |]));
  db

let test_analyze_row_counts () =
  let st = Stats.analyze (mkdb ()) in
  Alcotest.(check int) "R rows" 100 (Stats.row_count st "R");
  Alcotest.(check int) "T rows" 500 (Stats.row_count st "T")

let test_analyze_ndv () =
  let st = Stats.analyze (mkdb ()) in
  (match Stats.column st "R" "a" with
  | Some c -> Alcotest.(check int) "key distinct" 100 c.Stats.distinct
  | None -> Alcotest.fail "no stats");
  match Stats.column st "R" "b" with
  | Some c -> Alcotest.(check int) "b distinct" 10 c.Stats.distinct
  | None -> Alcotest.fail "no stats"

(* Regression: NDV was counted over Value.to_string, so FLOATs equal to
   6 significant digits, and NULL beside the string 'NULL', counted once;
   INT 2 and FLOAT 2.0 are one value. *)
let test_analyze_ndv_by_value () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "V" ~key:[]
       [ Schema.column "f" Value.TFloat; Schema.column ~nullable:true "s" Value.TString ]);
  Database.load db "V"
    [ [| Value.Float 32946.01; Value.Null |]; [| Value.Float 32946.02; Value.String "NULL" |];
      [| Value.Float 32946.01; Value.String "NULL" |] ];
  let ndv col =
    match Stats.column (Stats.analyze db) "V" col with
    | Some c -> c.Stats.distinct
    | None -> Alcotest.fail "no stats"
  in
  Alcotest.(check int) "two prices" 2 (ndv "f");
  Alcotest.(check int) "NULL and 'NULL'" 2 (ndv "s")

let test_analyze_null_fraction () =
  let st = Stats.analyze (mkdb ()) in
  match Stats.column st "R" "c" with
  | Some c -> Alcotest.(check (float 0.001)) "quarter null" 0.25 c.Stats.null_fraction
  | None -> Alcotest.fail "no stats"

let test_missing_table () =
  let st = Stats.analyze (mkdb ()) in
  Alcotest.(check bool) "option none" true (Stats.table st "Z" = None);
  Alcotest.(check bool) "exn raises" true
    (try
       ignore (Stats.table_exn st "Z");
       false
     with Invalid_argument _ -> true)

let estimate db text =
  let st = Stats.analyze db in
  Cost.estimate st db (Sql_parser.parse text)

let test_scan_estimate () =
  let e = estimate (mkdb ()) "SELECT r.a AS a FROM R AS r" in
  Alcotest.(check (float 1.0)) "card = rows" 100.0 e.Cost.cardinality;
  Alcotest.(check bool) "cost positive" true (e.Cost.eval_cost > 0.0)

let test_filter_selectivity () =
  let e = estimate (mkdb ()) "SELECT r.a AS a FROM R AS r WHERE (r.b = 3)" in
  (* ndv(b) = 10 -> 1/10 selectivity *)
  Alcotest.(check (float 1.0)) "tenth" 10.0 e.Cost.cardinality

let test_key_fk_join_estimate () =
  let e =
    estimate (mkdb ())
      "SELECT t.x AS x FROM T AS t, R AS r WHERE (t.r = r.a)"
  in
  (* |T| x |R| / max(ndv) = 500*100/100 = 500 *)
  Alcotest.(check (float 50.0)) "fk join card" 500.0 e.Cost.cardinality

let test_eager_conjunct_application () =
  (* the estimator must not charge the cross product when conjuncts can
     apply during the fold (the bug class behind absurd plan costs) *)
  let e3 =
    estimate (mkdb ())
      "SELECT t.x AS x FROM T AS t, R AS r, T AS t2 \
       WHERE ((t.r = r.a) AND (t2.r = r.a))"
  in
  Alcotest.(check bool) "no cross-product blowup" true (e3.Cost.eval_cost < 1e7)

let test_left_outer_preserves_left_card () =
  let e =
    estimate (mkdb ())
      "SELECT r.a AS a FROM R AS r LEFT OUTER JOIN T AS t ON (r.a = t.x) WHERE (r.b = 999)"
  in
  Alcotest.(check bool) "at least left side" true (e.Cost.cardinality >= 1.0)

let test_union_adds () =
  let e =
    estimate (mkdb ())
      "(SELECT r.a AS k FROM R AS r) UNION ALL (SELECT t.x AS k FROM T AS t)"
  in
  Alcotest.(check (float 1.0)) "sum" 600.0 e.Cost.cardinality

let test_order_by_costs_more () =
  let db = mkdb () in
  let base = estimate db "SELECT t.x AS x FROM T AS t" in
  let sorted = estimate db "SELECT t.x AS x FROM T AS t ORDER BY x" in
  Alcotest.(check bool) "sorting charged" true
    (sorted.Cost.eval_cost > base.Cost.eval_cost)

let test_cost_combination () =
  let e = { Cost.cardinality = 10.0; eval_cost = 100.0; width = 8.0 } in
  Alcotest.(check (float 0.001)) "data size" 80.0 (Cost.data_size e);
  Alcotest.(check (float 0.001)) "linear combination" (2.0 *. 100.0 +. 3.0 *. 80.0)
    (Cost.cost ~a:2.0 ~b:3.0 e)

let test_oracle_counts_requests () =
  let db = mkdb () in
  let o = Cost.oracle db in
  Alcotest.(check int) "starts at 0" 0 (Cost.requests o);
  ignore (Cost.ask o (Sql_parser.parse "SELECT r.a AS a FROM R AS r"));
  ignore (Cost.ask o (Sql_parser.parse "SELECT t.x AS x FROM T AS t"));
  Alcotest.(check int) "two requests" 2 (Cost.requests o);
  Cost.reset_requests o;
  Alcotest.(check int) "reset" 0 (Cost.requests o)

(* A skew factor must be finite and positive, and its product must fit
   an int: int_of_float mapped NaN, infinite and overflowing products to
   0, which the clamp turned into a silent one-row table. *)
let test_scale_table_rejects_non_finite () =
  let st = Stats.analyze (mkdb ()) in
  List.iter
    (fun factor ->
      Alcotest.(check bool) (Printf.sprintf "factor %g rejected" factor) true
        (try Stats.scale_table st "R" factor; false
         with Invalid_argument _ -> true);
      Alcotest.(check int) (Printf.sprintf "factor %g: R untouched" factor)
        100 (Stats.row_count st "R"))
    [ Float.nan; Float.infinity; 1e300 ];
  Stats.scale_table st "R" 2.5;
  Alcotest.(check int) "a finite factor still scales" 250
    (Stats.row_count st "R")

let test_estimate_tracks_actual_within_oom () =
  (* sanity: estimated eval_cost within ~2 orders of magnitude of the
     executor's metered work on a real query *)
  let db = mkdb () in
  let q = Sql_parser.parse
      "SELECT t.x AS x, r.b AS b FROM T AS t, R AS r WHERE (t.r = r.a) ORDER BY x" in
  let st = Stats.analyze db in
  let est = Cost.estimate st db q in
  let _, stats = Executor.run_with_stats db q in
  let ratio = est.Cost.eval_cost /. float_of_int stats.Executor.work in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within [0.01, 100]" ratio)
    true
    (ratio > 0.01 && ratio < 100.0)

let suite =
  [
    Alcotest.test_case "analyze: row counts" `Quick test_analyze_row_counts;
    Alcotest.test_case "analyze: distinct values" `Quick test_analyze_ndv;
    Alcotest.test_case "analyze: null fraction" `Quick test_analyze_null_fraction;
    Alcotest.test_case "missing table" `Quick test_missing_table;
    Alcotest.test_case "estimate: scan" `Quick test_scan_estimate;
    Alcotest.test_case "estimate: filter selectivity" `Quick test_filter_selectivity;
    Alcotest.test_case "estimate: key/fk join" `Quick test_key_fk_join_estimate;
    Alcotest.test_case "estimate: eager conjuncts" `Quick test_eager_conjunct_application;
    Alcotest.test_case "estimate: left outer join" `Quick test_left_outer_preserves_left_card;
    Alcotest.test_case "estimate: union adds" `Quick test_union_adds;
    Alcotest.test_case "estimate: order by charged" `Quick test_order_by_costs_more;
    Alcotest.test_case "cost combination" `Quick test_cost_combination;
    Alcotest.test_case "oracle request counting" `Quick test_oracle_counts_requests;
    Alcotest.test_case "estimate vs actual work" `Quick test_estimate_tracks_actual_within_oom;
    Alcotest.test_case "scale_table rejects nan, inf, overflow" `Quick
      test_scale_table_rejects_non_finite;
    Alcotest.test_case "analyze: distinct by value" `Quick test_analyze_ndv_by_value;
  ]
