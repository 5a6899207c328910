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

let row_count st table = Stats.rows st (Stats.id st table)

(* A column's statistics, by name through the table's schema. *)
let column db st table col =
  Stats.column_at st (Stats.id st table)
    (Option.get (Schema.column_index (Database.schema db table) col))

let test_analyze_row_counts () =
  let st = Stats.analyze (mkdb ()) in
  Alcotest.(check int) "R rows" 100 (row_count st "R");
  Alcotest.(check int) "T rows" 500 (row_count st "T")

let test_analyze_ndv () =
  let db = mkdb () in
  let st = Stats.analyze db in
  (match column db st "R" "a" with
  | Some c -> Alcotest.(check int) "key distinct" 100 c.Stats.distinct
  | None -> Alcotest.fail "no stats");
  match column db st "R" "b" with
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
    match column db (Stats.analyze db) "V" col with
    | Some c -> c.Stats.distinct
    | None -> Alcotest.fail "no stats"
  in
  Alcotest.(check int) "two prices" 2 (ndv "f");
  Alcotest.(check int) "NULL and 'NULL'" 2 (ndv "s")

let test_analyze_null_fraction () =
  let db = mkdb () in
  let st = Stats.analyze db in
  match column db st "R" "c" with
  | Some c -> Alcotest.(check (float 0.001)) "quarter null" 0.25 c.Stats.null_fraction
  | None -> Alcotest.fail "no stats"

let test_missing_table () =
  let st = Stats.analyze (mkdb ()) in
  Alcotest.(check bool) "id raises" true
    (try
       ignore (Stats.id st "Z");
       false
     with Invalid_argument _ -> true)

(* The oracle's total for a query AST, as the planner asks it. *)
let estimate_q st db q = fst (Cost.annotate st (Physical.plan_of db q))

let estimate db text = estimate_q (Stats.analyze db) db (Sql_parser.parse text)

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

let test_oracle_counts_requests () =
  let db = mkdb () in
  let o = Cost.oracle_with_stats db (Stats.analyze db) in
  Alcotest.(check int) "starts at 0" 0 (Cost.requests o);
  ignore (Cost.ask o (Sql_parser.parse "SELECT r.a AS a FROM R AS r"));
  ignore (Cost.ask o (Sql_parser.parse "SELECT t.x AS x FROM T AS t"));
  Alcotest.(check int) "two requests" 2 (Cost.requests o)

(* A skew factor must be finite and positive, and its product must fit
   an int: int_of_float mapped NaN, infinite and overflowing products to
   0, which the clamp turned into a silent one-row table. *)
let test_scale_table_rejects_non_finite () =
  let st = Stats.analyze (mkdb ()) in
  List.iter
    (fun factor ->
      Alcotest.(check bool) (Printf.sprintf "factor %g rejected" factor) true
        (try ignore (Stats.skew st "R" factor); false
         with Invalid_argument _ -> true);
      Alcotest.(check int) (Printf.sprintf "factor %g: R untouched" factor)
        100 (row_count st "R"))
    [ Float.nan; Float.infinity; 1e300 ];
  let skewed = Stats.skew st "R" 2.5 in
  Alcotest.(check int) "a finite factor still scales" 250
    (row_count skewed "R")

let test_estimate_tracks_actual_within_oom () =
  (* sanity: estimated eval_cost within ~2 orders of magnitude of the
     executor's metered work on a real query *)
  let db = mkdb () in
  let q = Sql_parser.parse
      "SELECT t.x AS x, r.b AS b FROM T AS t, R AS r WHERE (t.r = r.a) ORDER BY x" in
  let st = Stats.analyze db in
  let est = estimate_q st db q in
  let _, stats = Executor.run_plan_with_stats db (Physical.plan_of db q) in
  let ratio = est.Cost.eval_cost /. float_of_int stats.Executor.work in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within [0.01, 100]" ratio)
    true
    (ratio > 0.01 && ratio < 100.0)

(* --- key- and FK-aware join estimates ----------------------------------- *)

let tpch = lazy (Tpch.Gen.generate (Tpch.Gen.config 0.5))

let mask db table cols =
  let schema = Database.schema db table in
  List.fold_left
    (fun m c -> m lor (1 lsl Option.get (Schema.column_index schema c)))
    0 cols

let test_distinct_bound () =
  let db = Lazy.force tpch in
  let st = Stats.analyze db in
  let li = Stats.id st "LineItem" and ps = Stats.id st "PartSupp" in
  let rows id = float_of_int (Stats.rows st id) in
  let bound table cols = Stats.distinct_bound st (Stats.id st table) (mask db table cols) in
  let check msg want got = Alcotest.(check (float 0.0)) msg want got in
  check "LineItem's FK to PartSupp" (rows ps) (bound "LineItem" [ "partkey"; "suppkey" ]);
  check "LineItem's key" (rows li) (bound "LineItem" [ "orderkey"; "lno" ]);
  check "a superset of the key" (rows li) (bound "LineItem" [ "orderkey"; "lno"; "qty" ]);
  check "an FK and one more column: no bound" Float.infinity
    (bound "LineItem" [ "partkey"; "suppkey"; "qty" ]);
  check "PartSupp's key holds its single-column FKs" (rows ps)
    (bound "PartSupp" [ "partkey"; "suppkey" ]);
  check "no key, no FK" Float.infinity (bound "LineItem" [ "qty"; "prc" ]);
  let st = Stats.skew st "PartSupp" 2.0 in
  check "skew reaches the FK bound"
    (float_of_int (Stats.rows st ps))
    (Stats.distinct_bound st li (mask db "LineItem" [ "partkey"; "suppkey" ]))

(* LineItem joins PartSupp on PartSupp's composite key, which is also
   LineItem's declared FK: every LineItem row meets exactly one row.
   Priced as two independent equalities it came out near |LineItem| /
   |Supplier|. *)
let test_composite_fk_join_estimate () =
  let db = Lazy.force tpch in
  let e =
    estimate_q (Stats.analyze db) db
      (Sql_parser.parse
         "SELECT l.qty AS q FROM LineItem AS l JOIN PartSupp AS ps \
          ON ((l.partkey = ps.partkey) AND (l.suppkey = ps.suppkey))")
  in
  Alcotest.(check (float 0.5)) "one PartSupp row per LineItem"
    (float_of_int (Database.row_count db "LineItem"))
    e.Cost.cardinality

(* Random FK-join chains of the TPC-H tables: each step joins a table
   that some table already in the chain references, on its full key,
   optionally filtered.  An inner join on the right side's full key
   keeps at most one right row per left row, so its estimate may never
   exceed its left input's — under any skew of the catalog too. *)
let tpch_fks db =
  List.concat_map
    (fun t ->
      List.map
        (fun (fk : Schema.foreign_key) -> (t, fk))
        (Database.schema db t).Schema.foreign_keys)
    (Database.table_names db)

let gen_chain db =
  let open QCheck.Gen in
  let fks = tpch_fks db in
  let tables = Array.of_list (Database.table_names db) in
  let* start = oneofa tables in
  let* len = int_range 1 5 in
  let rec grow chain ons n =
    if n = 0 then return (List.rev chain, List.rev ons)
    else
      let cands =
        List.concat_map
          (fun (alias, t) ->
            List.filter_map
              (fun (t', fk) -> if t' = t then Some (alias, fk) else None)
              fks)
          chain
      in
      if cands = [] then return (List.rev chain, List.rev ons)
      else
        let* alias, (fk : Schema.foreign_key) = oneofl cands in
        let a = Printf.sprintf "t%d" (List.length chain) in
        let on =
          String.concat " AND "
            (List.map2
               (fun c r -> Printf.sprintf "(%s.%s = %s.%s)" alias c a r)
               fk.fk_cols fk.ref_cols)
        in
        grow ((a, fk.ref_table) :: chain) (on :: ons) (n - 1)
  in
  let* chain, ons = grow [ ("t0", start) ] [] len in
  let* filter = opt (pair (int_range 0 (List.length chain - 1)) (int_range 1 50)) in
  let* skew = opt (pair (oneofa tables) (oneofl [ 0.1; 0.5; 2.0; 8.0 ])) in
  let from =
    List.fold_left2
      (fun acc (a, t) on -> Printf.sprintf "%s JOIN %s AS %s ON (%s)" acc t a on)
      (Printf.sprintf "%s AS t0" start)
      (List.tl chain) ons
  in
  let where =
    match filter with
    | None -> ""
    | Some (k, v) ->
        let a, t = List.nth chain k in
        Printf.sprintf " WHERE (%s.%s < %d)" a
          (List.hd (Database.schema db t).Schema.key)
          v
  in
  return
    ( Printf.sprintf "SELECT t0.%s AS k FROM %s%s"
        (List.hd (Database.schema db start).Schema.key)
        from where,
      skew )

(* The table a join input scans, through filters only. *)
let rec scanned (n : Physical.node) =
  match n.Physical.shape with
  | Physical.Scan { table; col_names; _ } -> Some (table, col_names)
  | Physical.Filter { input; _ } -> scanned input
  | _ -> None

let prop_key_join_bounded =
  let db = Lazy.force tpch in
  let print (sql, skew) =
    sql
    ^ match skew with None -> "" | Some (t, f) -> Printf.sprintf " [skew %s x%g]" t f
  in
  QCheck.Test.make ~name:"key join never estimated above its left input" ~count:200
    (QCheck.make ~print (gen_chain db))
    (fun (sql, skew) ->
      let st = Stats.analyze db in
      let st = Option.fold ~none:st ~some:(fun (t, f) -> Stats.skew st t f) skew in
      let plan = Physical.plan_of db (Sql_parser.parse sql) in
      let _, est = Cost.annotate st plan in
      let ok = ref true in
      Physical.iter
        (fun n ->
          match n.Physical.shape with
          | Physical.Join { left; right; info } when info.Physical.kind = Sql.Inner -> (
              match (scanned right, info.Physical.indexes) with
              | Some (table, names), [ ix ] ->
                  let keyed =
                    Array.to_list (Array.map (fun i -> names.(i)) ix.Physical.right_keys)
                  in
                  let key = (Database.schema db table).Schema.key in
                  if List.for_all (fun k -> List.mem k keyed) key then begin
                    let j = est.Physical.rows.(n.Physical.id)
                    and l = est.Physical.rows.(left.Physical.id) in
                    if j > Float.max 1.0 l *. (1.0 +. 1e-9) then ok := false
                  end
              | _ -> ())
          | _ -> ())
        plan;
      !ok)

let props = [ prop_key_join_bounded ]

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
    Alcotest.test_case "oracle request counting" `Quick test_oracle_counts_requests;
    Alcotest.test_case "estimate vs actual work" `Quick test_estimate_tracks_actual_within_oom;
    Alcotest.test_case "scale_table rejects nan, inf, overflow" `Quick
      test_scale_table_rejects_non_finite;
    Alcotest.test_case "analyze: distinct by value" `Quick test_analyze_ndv_by_value;
    Alcotest.test_case "distinct bound: keys and foreign keys" `Quick test_distinct_bound;
    Alcotest.test_case "estimate: composite FK join" `Quick
      test_composite_fk_join_estimate;
  ]
