(* The query engine: scans, joins (incl. left outer and OR-expansion),
   unions, sorting, three-valued WHERE, budget/timeout, work metering. *)

open Relational

let i n = Value.Int n
let s x = Value.String x

let mkdb () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "R" ~key:[ "a" ]
       [ Schema.column "a" Value.TInt; Schema.column "b" Value.TString ]);
  Database.add_table db
    (Schema.table "S" ~key:[ "c" ]
       [ Schema.column "c" Value.TInt; Schema.column "d" Value.TInt;
         Schema.column "e" Value.TString ]);
  Database.load db "R" [ [| i 1; s "one" |]; [| i 2; s "two" |]; [| i 3; s "three" |] ];
  Database.load db "S"
    [ [| i 10; i 1; s "x" |]; [| i 11; i 1; s "y" |]; [| i 12; i 2; s "z" |] ];
  db

(* Plan a query AST, then run it. *)
let run_with_stats ?budget ?profile db q =
  Executor.run_plan_with_stats ?budget ?profile db (Physical.plan_of db q)

let run db text = fst (run_with_stats db (Sql_parser.parse text))

let test_scan_project () =
  let r = run (mkdb ()) "SELECT r.b AS b FROM R AS r" in
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality r);
  Alcotest.(check int) "1 col" 1 (Array.length (Relation.cols r))

let test_where_filter () =
  let r = run (mkdb ()) "SELECT r.a AS a FROM R AS r WHERE (r.a >= 2)" in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r)

let test_inner_join () =
  let r = run (mkdb ())
      "SELECT r.a AS a, q.c AS c FROM R AS r, S AS q WHERE (r.a = q.d)" in
  Alcotest.(check int) "3 matches" 3 (Relation.cardinality r)

let test_left_outer_join_pads () =
  let r = run (mkdb ())
      "SELECT r.a AS a, q.c AS c FROM R AS r LEFT OUTER JOIN S AS q ON (r.a = q.d) ORDER BY a, c" in
  Alcotest.(check int) "3 matches + 1 pad" 4 (Relation.cardinality r);
  (* row for a=3 has NULL c *)
  let padded =
    List.filter (fun t -> Value.is_null t.(1)) (Relation.rows r)
  in
  Alcotest.(check int) "one padded row" 1 (List.length padded);
  Alcotest.(check bool) "pad is a=3" true (Value.equal (List.hd padded).(0) (i 3))

let test_left_outer_join_residual_condition () =
  (* equi key + residual: only S rows with e='x' count as matches *)
  let r = run (mkdb ())
      "SELECT r.a AS a, q.c AS c FROM R AS r LEFT OUTER JOIN S AS q ON ((r.a = q.d) AND (q.e = 'x'))" in
  Alcotest.(check int) "1 match + 2 pads" 3 (Relation.cardinality r)

let test_or_expansion_join () =
  (* the disjunctive ON shape that unified outer-join plans produce *)
  let r = run (mkdb ())
      "SELECT r.a AS a, q.c AS c FROM R AS r LEFT OUTER JOIN S AS q \
       ON (((q.e = 'x') AND (r.a = q.d)) OR ((q.e = 'z') AND (r.a = q.d)))" in
  (* a=1 matches c=10; a=2 matches c=12; a=3 padded *)
  Alcotest.(check int) "rows" 3 (Relation.cardinality r)

(* OR-expansion, exactly: rows in output order and the probed / emitted
   / work counters of the physical interpreter.  The legacy interpreter
   yields the same rows, probes and emissions; its work may only be
   higher, since the physical plan's rewrites narrow what emission pays
   for.
   L(a) = 1, 2, NULL; M rows in storage order (c, d, f, e):
   (10,1,1,x) (11,2,1,y) (12,NULL,2,z) (13,2,NULL,z). *)
let or_join_db () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "L" ~key:[] [ Schema.column ~nullable:true "a" Value.TInt ]);
  Database.add_table db
    (Schema.table "M" ~key:[ "c" ]
       [ Schema.column "c" Value.TInt; Schema.column ~nullable:true "d" Value.TInt;
         Schema.column ~nullable:true "f" Value.TInt; Schema.column "e" Value.TString ]);
  Database.load db "L" [ [| i 1 |]; [| i 2 |]; [| Value.Null |] ];
  Database.load db "M"
    [ [| i 10; i 1; i 1; s "x" |]; [| i 11; i 2; i 1; s "y" |];
      [| i 12; Value.Null; i 2; s "z" |]; [| i 13; i 2; Value.Null; s "z" |] ];
  db

let check_or_join on ~rows ~probed ~emitted ~work ~legacy_work =
  let db = or_join_db () in
  let q =
    Sql_parser.parse
      ("SELECT l.a AS a, m.c AS c FROM L AS l LEFT OUTER JOIN M AS m ON " ^ on)
  in
  let row_strings r = List.map Tuple.to_string (Relation.rows r) in
  let check path (r, (st : Executor.stats)) ~work =
    Alcotest.(check (list string)) (path ^ ": rows") rows (row_strings r);
    Alcotest.(check int) (path ^ ": probed") probed st.Executor.probed;
    Alcotest.(check int) (path ^ ": emitted") emitted st.Executor.emitted;
    Alcotest.(check int) (path ^ ": work") work st.Executor.work
  in
  check "physical" (run_with_stats db q) ~work;
  check "legacy" (Oracle.Legacy.run_with_stats db q) ~work:legacy_work

let test_or_expansion_join_exact () =
  (* M row 0 satisfies both disjuncts for a=1 (d=1, f=1): probed and
     emitted once.  Candidates are the union of the d- and f-buckets in
     ascending row order; the NULL left row reaches the NULL-keyed rows
     2 and 3 as candidates, matches neither and is padded. *)
  check_or_join "((l.a = m.d) OR (l.a = m.f))"
    ~rows:[ "(1, 10)"; "(1, 11)"; "(2, 11)"; "(2, 12)"; "(2, 13)"; "(NULL, NULL)" ]
    ~probed:7 ~emitted:12 ~work:43 ~legacy_work:43;
  (* two disjuncts on the same key pair share one bucket table *)
  check_or_join "(((l.a = m.d) AND (m.e = 'x')) OR ((l.a = m.d) AND (m.e = 'z')))"
    ~rows:[ "(1, 10)"; "(2, 13)"; "(NULL, NULL)" ]
    ~probed:4 ~emitted:6 ~work:25 ~legacy_work:25;
  (* a disjunct without an equality makes every M row a candidate *)
  check_or_join "((l.a = m.d) OR (m.c > 11))"
    ~rows:[ "(1, 10)"; "(1, 12)"; "(1, 13)"; "(2, 11)"; "(2, 12)"; "(2, 13)";
            "(NULL, 12)"; "(NULL, 13)" ]
    ~probed:12 ~emitted:16 ~work:55 ~legacy_work:59

(* Operators across chunk boundaries: T has two full chunks and a
   partial tail, U one full chunk and a tail.  Each query must yield the
   legacy interpreter's rows in the same order with the same probes and
   emissions, and never more work. *)
let multi_chunk_db () =
  let nt = (2 * Batch.default_size) + 37 and nu = Batch.default_size + 5 in
  let db = Database.create () in
  Database.add_table db
    (Schema.table "T" ~key:[ "k" ]
       [ Schema.column "k" Value.TInt; Schema.column "g" Value.TInt;
         Schema.column "name" Value.TString ]);
  Database.add_table db
    (Schema.table "U" ~key:[ "x" ]
       [ Schema.column "x" Value.TInt; Schema.column "g" Value.TInt;
         Schema.column "label" Value.TString ]);
  (* T's groups are k mod 11, U's x mod 9: T's groups 9 and 10 go
     unmatched *)
  Database.load db "T"
    (List.init nt (fun k ->
         [| i k; i (k mod 11); s (Printf.sprintf "t%d" (k * 7 mod nt)) |]));
  Database.load db "U"
    (List.init nu (fun x ->
         [| i x; i (x mod 9); s (Printf.sprintf "u%d" (x mod 13)) |]));
  (db, nt, nu)

let test_multi_chunk_vs_legacy () =
  let db, nt, nu = multi_chunk_db () in
  let count m p = List.length (List.filter p (List.init m Fun.id)) in
  let joined =
    List.fold_left ( + ) 0
      (List.init nt (fun k -> count nu (fun x -> x mod 9 = k mod 11)))
  and unmatched = count nt (fun k -> k mod 11 > 8) in
  let row_strings r = List.map Tuple.to_string (Relation.rows r) in
  let check text ~rows =
    let q = Sql_parser.parse text in
    let r, st = run_with_stats db q in
    let r0, st0 = Oracle.Legacy.run_with_stats db q in
    Alcotest.(check int) (text ^ ": row count") rows (Relation.cardinality r);
    Alcotest.(check (list string)) (text ^ ": rows") (row_strings r0) (row_strings r);
    Alcotest.(check int) (text ^ ": probed") st0.Executor.probed st.Executor.probed;
    Alcotest.(check int) (text ^ ": emitted") st0.Executor.emitted st.Executor.emitted;
    Alcotest.(check bool) (text ^ ": work <= legacy") true
      (st.Executor.work <= st0.Executor.work)
  in
  check "SELECT t.k AS k, t.g AS g, t.name AS name FROM T AS t" ~rows:nt;
  check "SELECT t.k AS k, 1 AS lvl, NULL AS pad FROM T AS t WHERE (t.g < 8)"
    ~rows:(count nt (fun k -> k mod 11 < 8));
  check "SELECT t.k AS k, u.x AS x FROM T AS t, U AS u WHERE (t.g = u.g)"
    ~rows:joined;
  check
    "SELECT t.k AS k, u.label AS label FROM T AS t LEFT OUTER JOIN U AS u \
     ON (t.g = u.g)"
    ~rows:(joined + unmatched);
  check "(SELECT t.k AS k FROM T AS t) UNION ALL (SELECT u.x AS k FROM U AS u)"
    ~rows:(nt + nu);
  check
    "SELECT t.name AS name, u.label AS label, t.k AS k FROM T AS t LEFT OUTER \
     JOIN U AS u ON (t.g = u.g) ORDER BY label DESC, name"
    ~rows:(joined + unmatched)

let test_union_all () =
  let r = run (mkdb ())
      "(SELECT r.a AS k FROM R AS r) UNION ALL (SELECT q.c AS k FROM S AS q)" in
  Alcotest.(check int) "3 + 3" 6 (Relation.cardinality r)

let test_union_arity_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (run (mkdb ())
         "(SELECT r.a AS k FROM R AS r) UNION ALL (SELECT q.c AS k, q.d AS d FROM S AS q)");
       false
     with Invalid_argument _ -> true)

let test_order_by_with_nulls () =
  let r = run (mkdb ())
      "SELECT r.a AS a, q.c AS c FROM R AS r LEFT OUTER JOIN S AS q ON (r.a = q.d) ORDER BY c, a" in
  (match Relation.rows r with
  | first :: _ -> Alcotest.(check bool) "null c first" true (Value.is_null first.(1))
  | [] -> Alcotest.fail "empty");
  Alcotest.(check bool) "sorted" true
    (Relation.equal r (Relation.sort_by [| 1; 0 |] r))

let test_order_by_desc () =
  let r = run (mkdb ()) "SELECT r.a AS a FROM R AS r ORDER BY a DESC" in
  match Relation.rows r with
  | a :: _ -> Alcotest.(check bool) "3 first" true (Value.equal a.(0) (i 3))
  | [] -> Alcotest.fail "empty"

let test_derived_table () =
  let r = run (mkdb ())
      "SELECT x.a AS a FROM (SELECT r.a AS a FROM R AS r WHERE (r.a >= 2)) AS x" in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r)

let test_dual_select () =
  let r = run (mkdb ()) "SELECT 1 AS one, 'x' AS x" in
  Alcotest.(check int) "one row" 1 (Relation.cardinality r)

let test_three_valued_where () =
  let db = mkdb () in
  Database.add_table db
    (Schema.table "N" ~key:[ "k" ]
       [ Schema.column "k" Value.TInt; Schema.column ~nullable:true "v" Value.TInt ]);
  Database.load db "N" [ [| i 1; i 5 |]; [| i 2; Value.Null |] ];
  let r = run db "SELECT n.k AS k FROM N AS n WHERE (n.v = 5)" in
  Alcotest.(check int) "null row filtered" 1 (Relation.cardinality r);
  let r = run db "SELECT n.k AS k FROM N AS n WHERE (n.v IS NULL)" in
  Alcotest.(check int) "is null finds it" 1 (Relation.cardinality r)

let test_ambiguous_column () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (run (mkdb ()) "SELECT a AS a FROM R AS r, R AS r2 WHERE (r.a = r2.a)");
       false
     with Algebra.Ambiguous_column "a" -> true)

let test_budget_timeout () =
  let db = mkdb () in
  Alcotest.(check bool) "tiny budget trips" true
    (try
       ignore (run_with_stats ~budget:2 db
                 (Sql_parser.parse "SELECT r.a AS a FROM R AS r, S AS q WHERE (r.a = q.d)"));
       false
     with Executor.Timeout -> true)

let test_stats_metering () =
  let db = mkdb () in
  let _, st =
    run_with_stats db
      (Sql_parser.parse "SELECT r.a AS a FROM R AS r ORDER BY a")
  in
  Alcotest.(check int) "scanned" 3 st.Executor.scanned;
  Alcotest.(check bool) "sorted counted" true (st.Executor.sorted > 0);
  Alcotest.(check bool) "work positive" true (st.Executor.work > 0)

let test_filter_charges_emit () =
  (* Regression for the eval_from leftover-conjunct path: every filter
     that drops rows must charge `Emit` per surviving row, the same as
     apply_filters, so predicate placement cannot change work counts.
     Single-table filter: emitted = survivors (filter) + output rows
     (projection) — exactly 2 per surviving row, never less. *)
  let db = mkdb () in
  let _, st =
    run_with_stats db
      (Sql_parser.parse "SELECT r.a AS a FROM R AS r WHERE (r.a >= 2)")
  in
  Alcotest.(check int) "scanned all" 3 st.Executor.scanned;
  Alcotest.(check int) "filter + projection each charge survivors" 4
    st.Executor.emitted;
  (* a filterless equivalent charges only the projection *)
  let _, st_all =
    run_with_stats db (Sql_parser.parse "SELECT r.a AS a FROM R AS r")
  in
  Alcotest.(check int) "no filter: projection only" 3 st_all.Executor.emitted

let test_unresolvable_conjunct_raises () =
  (* conjuncts that never become applicable are a resolution error, not a
     silent (and formerly uncharged) filter *)
  let db = mkdb () in
  Alcotest.(check bool) "raises Unresolved_column" true
    (try
       ignore
         (run_with_stats db
            (Sql_parser.parse "SELECT r.a AS a FROM R AS r WHERE (z.q = 1)"));
       false
     with Expr.Unresolved_column _ -> true)

let test_spill_accounting () =
  (* a tiny sort buffer forces spill passes on any non-trivial sort *)
  let db = mkdb () in
  let profile = { Executor.sort_buffer = 8; byte_div = 4 } in
  let _, st =
    run_with_stats ~profile db
      (Sql_parser.parse "SELECT r.a AS a, r.b AS b FROM R AS r ORDER BY a")
  in
  Alcotest.(check bool) "spill passes recorded" true (st.Executor.spill_passes > 0);
  let _, st_big =
    run_with_stats db
      (Sql_parser.parse "SELECT r.a AS a, r.b AS b FROM R AS r ORDER BY a")
  in
  Alcotest.(check int) "no spill with default buffer" 0 st_big.Executor.spill_passes;
  Alcotest.(check bool) "spill costs work" true (st.Executor.work > st_big.Executor.work)

let test_cross_product_without_condition () =
  let r = run (mkdb ()) "SELECT r.a AS a, q.c AS c FROM R AS r, S AS q" in
  Alcotest.(check int) "3x3" 9 (Relation.cardinality r)

let test_join_chain_three_tables () =
  let db = mkdb () in
  Database.add_table db
    (Schema.table "T" ~key:[ "f" ]
       [ Schema.column "f" Value.TInt; Schema.column "g" Value.TInt ]);
  Database.load db "T" [ [| i 10; i 100 |]; [| i 12; i 200 |] ];
  let r = run db
      "SELECT r.b AS b, t.g AS g FROM R AS r, S AS q, T AS t \
       WHERE ((r.a = q.d) AND (q.c = t.f))" in
  (* S rows with c in {10,12}: (10,d=1),(12,d=2) -> 2 results *)
  Alcotest.(check int) "chained" 2 (Relation.cardinality r)

let test_null_join_keys_never_match () =
  (* SQL: NULL = NULL is UNKNOWN, so NULL keys never join *)
  let db = Database.create () in
  Database.add_table db
    (Schema.table "A" ~key:[]
       [ Schema.column ~nullable:true "x" Value.TInt ]);
  Database.add_table db
    (Schema.table "B" ~key:[]
       [ Schema.column ~nullable:true "y" Value.TInt ]);
  Database.load db "A" [ [| Value.Null |]; [| i 1 |] ];
  Database.load db "B" [ [| Value.Null |]; [| i 1 |] ];
  let inner = run db "SELECT a.x AS x, b.y AS y FROM A AS a, B AS b WHERE (a.x = b.y)" in
  Alcotest.(check int) "only 1=1 matches" 1 (Relation.cardinality inner);
  let outer =
    run db "SELECT a.x AS x, b.y AS y FROM A AS a LEFT OUTER JOIN B AS b ON (a.x = b.y)"
  in
  (* NULL row of A is padded, 1 matches *)
  Alcotest.(check int) "pad + match" 2 (Relation.cardinality outer)

(* Regression: Value.hash hashed Int 2 and Float 2.0 apart although
   they are equal, so a hash join over an INT and a FLOAT key found no
   match that the nested loop finds. *)
let test_hash_join_int_float_keys () =
  let db = Database.create () in
  Database.add_table db
    (Schema.table "A" ~key:[] [ Schema.column "x" Value.TInt ]);
  Database.add_table db
    (Schema.table "B" ~key:[] [ Schema.column "y" Value.TFloat ]);
  Database.load db "A" [ [| i 1 |]; [| i 2 |] ];
  Database.load db "B" [ [| Value.Float 1.0 |]; [| Value.Float 2.0 |] ];
  let rows text = List.map Tuple.to_string (Relation.rows (run db text)) in
  Alcotest.(check (list string)) "hash join on a.x = b.y" [ "(1)"; "(2)" ]
    (rows "SELECT a.x AS x FROM A AS a, B AS b WHERE (a.x = b.y)");
  Alcotest.(check (list string)) "nested loop on a.x <= b.y AND a.x >= b.y"
    [ "(1)"; "(2)" ]
    (rows
       "SELECT a.x AS x FROM A AS a, B AS b WHERE ((a.x <= b.y) AND (a.x >= b.y))")

(* An Int is compared with a Float exactly, so a right-side group of
   equal keys that mixes the two holds only keys the left key equals or
   none: beyond 2^53, [Int (2^53 + 1)] equals neither [Int 2^53] nor
   [Float 2^53.], and [Int 2^53] equals both.  The hash join, which
   accepts a key match without testing ON, must return what a forced
   nested loop returns, whichever side of the union comes first. *)
let test_hash_join_mixed_key_group () =
  let db = Database.create () in
  Database.add_table db (Schema.table "A" ~key:[] [ Schema.column "x" Value.TInt ]);
  Database.add_table db (Schema.table "B" ~key:[] [ Schema.column "k" Value.TFloat ]);
  Database.add_table db (Schema.table "C" ~key:[] [ Schema.column "k" Value.TInt ]);
  let big = 1 lsl 53 in
  Database.load db "A" [ [| i big |]; [| i (big + 1) |] ];
  Database.load db "B" [ [| Value.Float (float_of_int big) |] ];
  Database.load db "C" [ [| i big |] ];
  let rows ~first ~second ~on =
    List.map Tuple.to_string
      (Relation.rows
         (run db
            (Printf.sprintf
               "SELECT a.x AS x, u.k AS k FROM A AS a, ((SELECT %s.k AS k FROM %s AS %s) \
                UNION ALL (SELECT %s.k AS k FROM %s AS %s)) AS u WHERE %s"
               first (String.uppercase_ascii first) first second
               (String.uppercase_ascii second) second on)))
  in
  let f = Value.to_string (Value.Float (float_of_int big)) in
  List.iter
    (fun (first, second, expected) ->
      let name = first ^ " then " ^ second in
      let hash = rows ~first ~second ~on:"(a.x = u.k)" in
      Alcotest.(check (list string)) (name ^ ": only 2^53 matches") expected hash;
      Alcotest.(check (list string)) (name ^ ": hash join = nested loop")
        (rows ~first ~second
           ~on:"((a.x = u.k) OR ((a.x < u.k) AND (a.x > u.k)))")
        hash)
    [
      ("b", "c", [ Printf.sprintf "(%d, %s)" big f; Printf.sprintf "(%d, %d)" big big ]);
      ("c", "b", [ Printf.sprintf "(%d, %d)" big big; Printf.sprintf "(%d, %s)" big f ]);
    ]

(* Hash join vs nested loop: the same ON, once as planned (a hash join)
   and once with a disjunct that has no column equality and never holds,
   which forces a nested loop, must give the same rows in the same
   order.  Seeded small tables with NULL and duplicate keys, an empty
   side, and INT keys on the left joined to a union of FLOAT and INT
   keys on the right; the union carries a discriminator [d], the
   outer-union shape.  Work counters are not compared: the two
   algorithms probe different candidates. *)
let join_algos_db rand ~nleft ~nright =
  let db = Database.create () in
  let nullable name ty = Schema.column ~nullable:true name ty in
  Database.add_table db
    (Schema.table "A" ~key:[] [ nullable "x" Value.TInt; nullable "y" Value.TInt ]);
  Database.add_table db
    (Schema.table "B" ~key:[] [ Schema.column "d" Value.TInt; nullable "k" Value.TFloat ]);
  Database.add_table db
    (Schema.table "C" ~key:[] [ Schema.column "d" Value.TInt; nullable "k" Value.TInt ]);
  let key num () =
    if Random.State.int rand 5 = 0 then Value.Null
    else num (Random.State.int rand 4)
  in
  let int_key = key i and float_key = key (fun n -> Value.Float (float_of_int n)) in
  let rows n f = List.init n (fun _ -> f ()) in
  let d () = i (1 + Random.State.int rand 2) in
  Database.load db "A" (rows nleft (fun () -> [| int_key (); int_key () |]));
  Database.load db "B" (rows (nright / 2) (fun () -> [| d (); float_key () |]));
  Database.load db "C" (rows (nright - (nright / 2)) (fun () -> [| d (); int_key () |]));
  db

let join_algos =
  let rec go acc (n : Physical.node) =
    match n.Physical.shape with
    | Physical.Join { left; right; info } -> go (go (info.Physical.algo :: acc) left) right
    | Scan _ | Dual -> acc
    | Filter { input; _ } | Project { input; _ } | Sort { input; _ } | Derived { input; _ } ->
        go acc input
    | Union ns -> List.fold_left go acc ns
  in
  fun (p : Physical.plan) -> go [] p.Physical.root

let test_hash_join_vs_nested_loop () =
  let never = "((a.x < u.k) AND (a.x > u.k))" in
  let query kind on =
    Printf.sprintf
      "SELECT a.x AS x, a.y AS y, u.d AS d, u.k AS k FROM A AS a %s JOIN \
       ((SELECT b.d AS d, b.k AS k FROM B AS b) UNION ALL \
       (SELECT c.d AS d, c.k AS k FROM C AS c)) AS u ON %s"
      kind on
  in
  let cases =
    [
      ("INNER", "(a.x = u.k)");
      ("LEFT OUTER", "(a.x = u.k)");
      ("LEFT OUTER", "(((u.d = 1) AND (a.x = u.k)) OR ((u.d = 2) AND (a.y = u.k)))");
    ]
  in
  let sizes =
    [ (0, 6); (6, 0) ] @ List.init 40 (fun s -> (s mod 9, (s * 7) mod 11))
  in
  List.iteri
    (fun seed (nleft, nright) ->
      let db = join_algos_db (Random.State.make [| seed |]) ~nleft ~nright in
      List.iter
        (fun (kind, on) ->
          let run_algo text algo =
            let plan = Physical.plan_of db (Sql_parser.parse text) in
            Alcotest.(check bool) (text ^ ": one join of the forced kind") true
              (join_algos plan = [ algo ]);
            let r, _ = Executor.run_plan_with_stats db plan in
            List.map
              (fun t -> String.concat ", " (Array.to_list (Array.map Value.to_sql t)))
              (Relation.rows r)
          in
          let hash = run_algo (query kind on) Physical.Hash_join
          and nested =
            run_algo (query kind (Printf.sprintf "(%s OR %s)" on never)) Physical.Nested_loop
          in
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d, %s JOIN ON %s" seed kind on) nested hash)
        cases)
    sizes

let test_empty_tables () =
  let db = mkdb () in
  Database.add_table db
    (Schema.table "E" ~key:[ "k" ] [ Schema.column "k" Value.TInt ]);
  Alcotest.(check int) "empty scan" 0
    (Relation.cardinality (run db "SELECT e.k AS k FROM E AS e"));
  Alcotest.(check int) "inner join with empty" 0
    (Relation.cardinality
       (run db "SELECT r.a AS a FROM R AS r, E AS e WHERE (r.a = e.k)"));
  Alcotest.(check int) "left join with empty pads all" 3
    (Relation.cardinality
       (run db "SELECT r.a AS a, e.k AS k FROM R AS r LEFT OUTER JOIN E AS e ON (r.a = e.k)"))

let test_self_join_aliases () =
  let r = run (mkdb ())
      "SELECT r1.a AS a, r2.a AS b FROM R AS r1, R AS r2 WHERE (r1.a < r2.a)" in
  Alcotest.(check int) "three pairs" 3 (Relation.cardinality r)

let suite =
  [
    Alcotest.test_case "scan + project" `Quick test_scan_project;
    Alcotest.test_case "NULL join keys never match" `Quick test_null_join_keys_never_match;
    Alcotest.test_case "hash join matches INT and FLOAT keys" `Quick
      test_hash_join_int_float_keys;
    Alcotest.test_case "hash join tests ON where a key group mixes INT and FLOAT" `Quick
      test_hash_join_mixed_key_group;
    Alcotest.test_case "hash join = nested loop, rows in order" `Quick
      test_hash_join_vs_nested_loop;
    Alcotest.test_case "empty tables" `Quick test_empty_tables;
    Alcotest.test_case "self join" `Quick test_self_join_aliases;
    Alcotest.test_case "where filter" `Quick test_where_filter;
    Alcotest.test_case "inner join" `Quick test_inner_join;
    Alcotest.test_case "left outer join pads" `Quick test_left_outer_join_pads;
    Alcotest.test_case "left outer join residual" `Quick test_left_outer_join_residual_condition;
    Alcotest.test_case "OR-expansion join" `Quick test_or_expansion_join;
    Alcotest.test_case "OR-expansion join, exact" `Quick test_or_expansion_join_exact;
    Alcotest.test_case "operators across chunks vs legacy" `Quick
      test_multi_chunk_vs_legacy;
    Alcotest.test_case "union all" `Quick test_union_all;
    Alcotest.test_case "union arity mismatch" `Quick test_union_arity_mismatch;
    Alcotest.test_case "order by with NULLs" `Quick test_order_by_with_nulls;
    Alcotest.test_case "order by DESC" `Quick test_order_by_desc;
    Alcotest.test_case "derived table" `Quick test_derived_table;
    Alcotest.test_case "dual select" `Quick test_dual_select;
    Alcotest.test_case "three-valued WHERE" `Quick test_three_valued_where;
    Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column;
    Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
    Alcotest.test_case "work metering" `Quick test_stats_metering;
    Alcotest.test_case "filters charge emit" `Quick test_filter_charges_emit;
    Alcotest.test_case "unresolvable conjunct" `Quick test_unresolvable_conjunct_raises;
    Alcotest.test_case "spill accounting" `Quick test_spill_accounting;
    Alcotest.test_case "cross product" `Quick test_cross_product_without_condition;
    Alcotest.test_case "three-table join chain" `Quick test_join_chain_three_tables;
  ]

(* Property: hash join with OR-expansion agrees with a reference
   nested-loop evaluation on random small instances. *)
let prop_join_vs_nested_loop =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 12) (pair (int_bound 4) (int_bound 4)))
        (list_size (int_bound 12) (pair (int_bound 4) (int_bound 4))))
  in
  QCheck.Test.make ~name:"left join = reference semantics" ~count:100
    (QCheck.make gen) (fun (rs, ss) ->
      let db = Database.create () in
      Database.add_table db
        (Schema.table "A" ~key:[]
           [ Schema.column "x" Value.TInt; Schema.column "y" Value.TInt ]);
      Database.add_table db
        (Schema.table "B" ~key:[]
           [ Schema.column "u" Value.TInt; Schema.column "v" Value.TInt ]);
      Database.load db "A" (List.map (fun (x, y) -> [| i x; i y |]) rs);
      Database.load db "B" (List.map (fun (u, v) -> [| i u; i v |]) ss);
      let r = run db
          "SELECT a.x AS x, a.y AS y, b.u AS u, b.v AS v \
           FROM A AS a LEFT OUTER JOIN B AS b ON (a.x = b.u) ORDER BY x, y, u, v" in
      (* reference *)
      let expected =
        List.concat_map
          (fun (x, y) ->
            let matches = List.filter (fun (u, _) -> u = x) ss in
            if matches = [] then [ [| i x; i y; Value.Null; Value.Null |] ]
            else List.map (fun (u, v) -> [| i x; i y; i u; i v |]) matches)
          rs
      in
      let all = [| 0; 1; 2; 3 |] in
      Relation.equal (Relation.sort_by all r)
        (Relation.sort_by all (Relation.create [| "x"; "y"; "u"; "v" |] expected)))

(* Property: the ORDER BY sort equals List.stable_sort on key-decorated
   pairs — the order of equal keys included, since each pair's bytes are
   its input position — and counts the input's non-descending runs. *)
let prop_sort_vs_stable_sort =
  let open QCheck.Gen in
  let value =
    frequency
      [
        (1, return Value.Null);
        (4, map i (int_range 0 4));
        (2, map (fun n -> Value.Float (float_of_int n /. 2.0)) (int_range 0 8));
      ]
  in
  let key =
    pair
      (frequency
         [
           (4, map (fun c -> Expr.R_col c) (int_bound 2));
           (1, return Expr.(R_arith (Add, R_col 0, R_col 1)));
         ])
      (oneofl [ Sql.Asc; Sql.Desc ])
  in
  let shape =
    oneof
      [
        oneofl [ `Random; `Sorted; `Reversed ];
        map (fun k -> `Runs k) (int_range 2 6);
      ]
  in
  let gen =
    triple
      (list_size (int_range 1 3) key)
      shape
      (list_size (int_bound 300) (array_repeat 3 value))
  in
  let print (keys, shape, rows) =
    let key (r, dir) =
      (match r with Expr.R_col c -> Printf.sprintf "#%d" c | _ -> "#0+#1")
      ^ if dir = Sql.Desc then " DESC" else ""
    in
    let row t = String.concat "," (Array.to_list (Array.map Value.to_sql t)) in
    Printf.sprintf "keys %s, %s, rows [%s]"
      (String.concat ", " (List.map key keys))
      (match shape with
      | `Random -> "random"
      | `Sorted -> "sorted"
      | `Reversed -> "reversed"
      | `Runs k -> Printf.sprintf "%d runs" k)
      (String.concat "; " (List.map row rows))
  in
  QCheck.Test.make ~name:"sort = List.stable_sort on decorated pairs"
    ~count:500 (QCheck.make ~print gen) (fun (keys, shape, rows) ->
      let fns = List.map (fun (r, dir) -> (Expr.compile r, dir)) keys in
      let decorate t = List.map (fun (f, _) -> f t) fns in
      let rec cmp_keys dirs a b =
        match (dirs, a, b) with
        | (_, dir) :: dirs, x :: a, y :: b ->
            let c = Value.compare_total x y in
            let c = if dir = Sql.Desc then -c else c in
            if c <> 0 then c else cmp_keys dirs a b
        | _ -> 0
      in
      let cmp_rows a b = cmp_keys keys (decorate a) (decorate b) in
      let stable_sort pairs =
        List.map (fun (t, p) -> (decorate t, p)) pairs
        |> List.stable_sort (fun (a, _) (b, _) -> cmp_keys keys a b)
        |> List.map snd
      in
      let sort_rows l = stable_sort (List.map (fun t -> (t, t)) l) in
      let rec chunks k l =
        if k <= 1 then [ l ]
        else
          let n = List.length l / k in
          List.filteri (fun j _ -> j < n) l
          :: chunks (k - 1) (List.filteri (fun j _ -> j >= n) l)
      in
      let rows =
        match shape with
        | `Random -> rows
        | `Sorted -> sort_rows rows
        | `Reversed -> List.rev (sort_rows rows)
        | `Runs k -> List.concat_map sort_rows (chunks k rows)
      in
      let pairs = List.mapi (fun j t -> (j, t)) rows in
      let expected = stable_sort (List.map (fun ((_, t) as p) -> (t, p)) pairs) in
      let runs =
        match rows with
        | [] -> 0
        | first :: rest ->
            fst
              (List.fold_left
                 (fun (n, prev) t -> ((if cmp_rows prev t > 0 then n + 1 else n), t))
                 (1, first) rest)
      in
      (* each row's bytes are its input position: equal rows must keep
         their order, and every row its own figure *)
      let got_rows, got_bytes, got_runs =
        Executor.sort_rows keys (Array.of_list rows)
          (Array.of_list (List.map fst pairs))
      in
      List.combine (Array.to_list got_bytes) (Array.to_list got_rows) = expected
      && got_runs = runs
      && (shape <> `Sorted || runs <= 1))

(* Property: guarded hash-join indexes.  A left table A(x, y, z) is
   joined onto a discriminated UNION ALL u(d, k, m) of B and C (C's k is
   FLOAT), with NULL and duplicate keys and NULL discriminators.  ON is
   an OR of 1-4 disjuncts, each a key set (some disjuncts share one, so
   share an index) with right-only conjuncts on the discriminator, which
   make the index guards, and left-only conjuncts.  The hash join must
   give the forced nested loop's and the legacy interpreter's rows in
   order and, while ON stays whole, the legacy probes, emissions and
   work and the nested loop's emissions and work net of probes.  Its
   [tested] count must be the
   pairs that share a non-NULL key with some index and pass its guard:
   no more (rows with NULL keys kept in the probe slice), and, through
   the rows, no fewer (a guard that ANDs an index's disjuncts). *)
type guarded_case = {
  g_kind : string;
  g_left : Value.t array list; (* x, y, z *)
  g_b : Value.t array list; (* d, k, m *)
  g_c : Value.t array list;
  g_disjuncts : (int * int list * int list) list;
      (* key set, right-only and left-only conjuncts *)
}

(* Key sets as (left column, right column) pairs over A's (x, y, z) and
   u's (d, k, m). *)
let key_sets = [| [ (0, 1) ]; [ (1, 1) ]; [ (0, 1); (1, 2) ]; [ (2, 2) ] |]

let left_names = [| "a.x"; "a.y"; "a.z" |]
let right_names = [| "u.d"; "u.k"; "u.m" |]

(* Right-only conjuncts: SQL text and WHERE truth on a right row. *)
let right_conjuncts =
  let d r = r.(0) in
  let is c v = Value.equal v (i c) in
  [|
    ("(u.d = 1)", fun r -> is 1 (d r));
    ("(u.d = 2)", fun r -> is 2 (d r));
    ("(u.d <> 3)", fun r -> (not (Value.is_null (d r))) && not (is 3 (d r)));
    ("(NOT (u.d = 2))", fun r -> (not (Value.is_null (d r))) && not (is 2 (d r)));
    ("(u.d IS NULL)", fun r -> Value.is_null (d r));
  |]

(* Left-only conjuncts: SQL text and WHERE truth on a left row. *)
let left_conjuncts =
  [|
    ("(a.z = 1)", fun l -> Value.equal l.(2) (i 1));
    ("(a.z IS NULL)", fun l -> Value.is_null l.(2));
  |]

let guarded_on c =
  String.concat " OR "
    (List.map
       (fun (ks, rs, ls) ->
         let keys =
           List.map
             (fun (l, r) -> Printf.sprintf "(%s = %s)" left_names.(l) right_names.(r))
             key_sets.(ks)
         in
         let cs =
           keys
           @ List.map (fun j -> fst right_conjuncts.(j)) rs
           @ List.map (fun j -> fst left_conjuncts.(j)) ls
         in
         "(" ^ String.concat " AND " cs ^ ")")
       c.g_disjuncts)

(* The pairs the guarded indexes hand to ON: those that share a
   non-NULL key with some index and pass its guard.  (A single
   disjunct's right-only conjuncts sink below the join instead, which
   drops the same pairs.) *)
let expected_tested c =
  let right = c.g_b @ c.g_c in
  let indexes =
    List.sort_uniq compare (List.map (fun (ks, _, _) -> ks) c.g_disjuncts)
  in
  let guard ks r =
    List.exists
      (fun (ks', rs, _) ->
        ks' = ks && List.for_all (fun j -> snd right_conjuncts.(j) r) rs)
      c.g_disjuncts
  in
  List.fold_left
    (fun acc l ->
      acc
      + List.length
          (List.filter
             (fun r ->
               List.exists
                 (fun ks ->
                   List.for_all
                     (fun (lc, rc) ->
                       (not (Value.is_null l.(lc))) && Value.equal l.(lc) r.(rc))
                     key_sets.(ks)
                   && guard ks r)
                 indexes)
             right))
    0 c.g_left

let gen_guarded =
  let open QCheck.Gen in
  let key num = frequency [ (1, return Value.Null); (4, map num (int_bound 3)) ] in
  let int_key = key i and float_key = key (fun n -> Value.Float (float_of_int n)) in
  let disc = frequency [ (1, return Value.Null); (5, map i (int_range 1 3)) ] in
  let rows n g = list_size (int_bound n) g in
  let disjunct =
    triple (int_bound (Array.length key_sets - 1))
      (list_size (int_bound 2) (int_bound (Array.length right_conjuncts - 1)))
      (list_size (int_bound 1) (int_bound (Array.length left_conjuncts - 1)))
  in
  map
    (fun (kind, (l, b, c), ds) ->
      { g_kind = kind; g_left = l; g_b = b; g_c = c; g_disjuncts = ds })
    (triple
       (oneofl [ "INNER"; "LEFT OUTER" ])
       (triple
          (rows 9 (array_repeat 3 int_key))
          (rows 8 (map (fun (d, k, m) -> [| d; k; m |]) (triple disc int_key int_key)))
          (rows 8 (map (fun (d, k, m) -> [| d; k; m |]) (triple disc float_key int_key))))
       (list_size (int_range 1 4) disjunct))

let print_guarded c =
  let rows l =
    String.concat "; "
      (List.map (fun t -> String.concat "," (Array.to_list (Array.map Value.to_sql t))) l)
  in
  Printf.sprintf "%s JOIN ON %s\nA: %s\nB: %s\nC: %s" c.g_kind (guarded_on c)
    (rows c.g_left) (rows c.g_b) (rows c.g_c)

let prop_guarded_index_join =
  QCheck.Test.make ~name:"guarded hash join = nested loop = legacy" ~count:300
    (QCheck.make ~print:print_guarded gen_guarded) (fun c ->
      let db = Database.create () in
      let nullable name ty = Schema.column ~nullable:true name ty in
      let int3 = List.map (fun n -> nullable n Value.TInt) in
      Database.add_table db (Schema.table "A" ~key:[] (int3 [ "x"; "y"; "z" ]));
      Database.add_table db (Schema.table "B" ~key:[] (int3 [ "d"; "k"; "m" ]));
      Database.add_table db
        (Schema.table "C" ~key:[]
           [ nullable "d" Value.TInt; nullable "k" Value.TFloat; nullable "m" Value.TInt ]);
      Database.load db "A" c.g_left;
      Database.load db "B" c.g_b;
      Database.load db "C" c.g_c;
      let query on =
        Sql_parser.parse
          (Printf.sprintf
             "SELECT a.x AS x, a.y AS y, a.z AS z, u.d AS d, u.k AS k, u.m AS m \
              FROM A AS a %s JOIN ((SELECT b.d AS d, b.k AS k, b.m AS m FROM B AS b) \
              UNION ALL (SELECT c.d AS d, c.k AS k, c.m AS m FROM C AS c)) AS u ON %s"
             c.g_kind on)
      in
      let on = guarded_on c in
      let run_algo q algo =
        let plan = Physical.plan_of db q in
        if join_algos plan <> [ algo ] then QCheck.Test.fail_report "unexpected join algorithm";
        Executor.run_plan_with_stats db plan
      in
      let rows r = List.map Tuple.to_string (Relation.rows r) in
      let q = query ("(" ^ on ^ ")") in
      let (hash, (st : Executor.stats)), tested =
        Fun.protect ~finally:Obs.Span.reset (fun () ->
            Obs.Span.reset ();
            Obs.Control.with_enabled true (fun () ->
                let res = run_algo q Physical.Hash_join in
                let tested =
                  List.fold_left
                    (fun acc s ->
                      match Obs.Span.find_attr s "tested" with
                      | Some (Obs.Attr.Int n) when s.Obs.Span.name = "exec.hash-join" -> acc + n
                      | _ -> acc)
                    0 (Obs.Span.spans ())
                in
                (res, tested)))
      in
      let nested, (nst : Executor.stats) =
        run_algo
          (query (Printf.sprintf "((%s) OR ((a.x < u.k) AND (a.x > u.k)))" on))
          Physical.Nested_loop
      in
      let legacy, (lst : Executor.stats) = Oracle.Legacy.run_with_stats db q in
      let check what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %d, expected %d" what a b
      in
      if rows hash <> rows nested then QCheck.Test.fail_report "rows differ from the nested loop";
      if rows hash <> rows legacy then QCheck.Test.fail_report "rows differ from legacy";
      (* A single disjunct's right-only conjuncts sink below the join,
         which only lowers the bill; otherwise ON stays whole. *)
      let whole =
        match c.g_disjuncts with [ (_, _ :: _, _) ] -> false | _ -> true
      in
      if whole then begin
        check "probed vs legacy" st.Executor.probed lst.Executor.probed;
        check "emitted vs legacy" st.Executor.emitted lst.Executor.emitted;
        check "work vs legacy" st.Executor.work lst.Executor.work;
        check "emitted vs nested loop" st.Executor.emitted nst.Executor.emitted;
        check "work net of probes vs nested loop"
          (st.Executor.work - st.Executor.probed)
          (nst.Executor.work - nst.Executor.probed)
      end
      else if st.Executor.work > lst.Executor.work then
        QCheck.Test.fail_report "work above legacy";
      check "tested" tested (expected_tested c);
      true)

(* --- a projection over a join ----------------------------------------- *)

(* A projection over A ⋈ B, built inside the join's probe: the join
   kind, its ON, the rows, the items, and which output columns are
   charged beyond the planner's mask (which skips the literals). *)
type fused_case = {
  f_kind : string;
  f_on : int; (* into [fused_ons] *)
  f_left : Value.t array list; (* x, y *)
  f_right : Value.t array list; (* d, k, m *)
  f_items : int list; (* into [fused_items] *)
  f_charge : bool list; (* per output column *)
}

(* One key, two keys, OR-expanded with guards (two indexes), and an ON
   with an equality-free disjunct (the nested loop). *)
let fused_ons =
  [|
    ("(a.x = b.k)", Physical.Hash_join);
    ("((a.x = b.k) AND (a.y = b.m))", Physical.Hash_join);
    ("(((b.d = 1) AND (a.x = b.k)) OR ((b.d = 2) AND (a.y = b.k)))", Physical.Hash_join);
    ("((a.x = b.k) OR (a.y < b.m))", Physical.Nested_loop);
  |]

let fused_columns = [ "a.x"; "a.y"; "b.d"; "b.k"; "b.m" ]

(* Items: SQL text and the columns it reads. *)
let fused_items =
  [|
    ("a.x", [ "a.x" ]);
    ("a.y", [ "a.y" ]);
    ("b.d", [ "b.d" ]);
    ("b.k", [ "b.k" ]);
    ("b.m", [ "b.m" ]);
    ("NULL", []);
    ("7", []);
    ("'lit'", []);
    ("2.5", []);
    ("(a.x + b.m)", [ "a.x"; "b.m" ]);
    ("(a.y - (b.d * 2))", [ "a.y"; "b.d" ]);
    ("(a.x < b.k)", [ "a.x"; "b.k" ]);
    ("(a.y = (b.m + 1))", [ "a.y"; "b.m" ]);
    ("(b.m IS NULL)", [ "b.m" ]);
    ("((a.x + b.k) IS NULL)", [ "a.x"; "b.k" ]);
    ("((a.y + b.d) IS NOT NULL)", [ "a.y"; "b.d" ]);
    ("((a.x = b.k) AND (b.m > 1))", [ "a.x"; "b.k"; "b.m" ]);
  |]

(* The select list: the drawn items, then every column none of them
   reads, so no input is pruned below the join (the legacy interpreter
   joins whole rows). *)
let fused_select c =
  let drawn = List.map (fun k -> fused_items.(k)) c.f_items in
  let read = List.concat_map snd drawn in
  List.map fst drawn @ List.filter (fun col -> not (List.mem col read)) fused_columns

let fused_sql c =
  Printf.sprintf "SELECT %s FROM A AS a %s JOIN B AS b ON %s"
    (String.concat ", " (List.mapi (fun j it -> Printf.sprintf "%s AS c%d" it j) (fused_select c)))
    c.f_kind (fst fused_ons.(c.f_on))

let gen_fused =
  let open QCheck.Gen in
  let v = frequency [ (1, return Value.Null); (4, map i (int_bound 3)) ] in
  map
    (fun ((kind, on, charge), (l, r), items) ->
      { f_kind = kind; f_on = on; f_left = l; f_right = r; f_items = items;
        f_charge = charge })
    (triple
       (triple (oneofl [ "INNER"; "LEFT OUTER" ])
          (int_bound (Array.length fused_ons - 1))
          (list_repeat (8 + List.length fused_columns) bool))
       (pair
          (list_size (int_bound 7) (array_repeat 2 v))
          (list_size (int_bound 7) (array_repeat 3 v)))
       (list_size (int_range 1 8) (int_bound (Array.length fused_items - 1))))

let print_fused c =
  let rows l =
    String.concat "; "
      (List.map (fun t -> String.concat "," (Array.to_list (Array.map Value.to_sql t))) l)
  in
  Printf.sprintf "%s\nA: %s\nB: %s\ncharged beyond the mask: %s" (fused_sql c)
    (rows c.f_left) (rows c.f_right)
    (String.concat "," (List.map string_of_bool c.f_charge))

let prop_project_over_join =
  QCheck.Test.make ~name:"projection over a join = legacy, join actuals its own"
    ~count:300 (QCheck.make ~print:print_fused gen_fused) (fun c ->
      let db = Database.create () in
      let int_cols = List.map (fun n -> Schema.column ~nullable:true n Value.TInt) in
      Database.add_table db (Schema.table "A" ~key:[] (int_cols [ "x"; "y" ]));
      Database.add_table db (Schema.table "B" ~key:[] (int_cols [ "d"; "k"; "m" ]));
      Database.load db "A" c.f_left;
      Database.load db "B" c.f_right;
      let q = Sql_parser.parse (fused_sql c) in
      let plan = Physical.plan_of db q in
      let root = plan.Physical.root in
      let charged, join, info, plan =
        match root.Physical.shape with
        | Physical.Project
            ({ input = { Physical.shape = Physical.Join { info; _ }; _ } as join; _ } as p) ->
            let charged = Array.mapi (fun k m -> m || List.nth c.f_charge k) p.charged in
            let root = { root with shape = Physical.Project { p with charged } } in
            (charged, join, info, { plan with root })
        | _ -> QCheck.Test.fail_report "the root is not a projection over a join"
      in
      if info.Physical.algo <> snd fused_ons.(c.f_on) then
        QCheck.Test.fail_report "unexpected join algorithm";
      let rel, (st : Executor.stats) = Executor.run_plan_with_stats db plan in
      let legacy, (lst : Executor.stats) = Oracle.Legacy.run_with_stats db q in
      let check what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %d, expected %d" what a b
      in
      let rows r = List.map Tuple.to_string (Relation.rows r) in
      if rows rel <> rows legacy then QCheck.Test.fail_report "rows differ from legacy";
      check "probed" st.probed lst.probed;
      check "emitted" st.emitted lst.emitted;
      (* the output's literal columns skip their byte charge; legacy
         charges every output row whole *)
      let div = Executor.default_profile.byte_div in
      let discount =
        List.fold_left
          (fun acc row ->
            let masked = ref 0 in
            Array.iteri (fun k v -> if charged.(k) then masked := !masked + Value.wire_size v) row;
            acc + (Tuple.wire_size row / div) - (!masked / div))
          0 (Relation.rows rel)
      in
      check "work" st.work (lst.work - discount);
      (* every node's own cost adds up to the work *)
      let act = st.actuals in
      let cost = ref 0 in
      Physical.iter
        (fun n -> if act.cost.(n.id) >= 0 then cost := !cost + act.cost.(n.id))
        plan;
      check "node costs" !cost st.work;
      (* the join's actuals are those of the join run by itself *)
      let width = info.Physical.split + info.Physical.right_width in
      let _, alone =
        Executor.run_plan_with_stats db
          { plan with Physical.root = join; cols = Array.make width "c" }
      in
      check "join rows" act.rows.(join.id) alone.actuals.rows.(join.id);
      check "join cost" act.cost.(join.id) alone.actuals.cost.(join.id);
      true)

let props =
  [
    prop_join_vs_nested_loop;
    prop_sort_vs_stable_sort;
    prop_guarded_index_join;
    prop_project_over_join;
  ]
