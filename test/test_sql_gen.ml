(* SQL generation (paper Sec. 3.4): structure of unified / partitioned /
   reduced queries, stream layouts, degenerate cases. *)

open Silkroute
module R = Relational

let setup ?(scale = 0.1) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

let streams_of db (p : Middleware.prepared) plan opts =
  Sql_gen.streams db p.Middleware.tree plan opts

let test_unified_fragment_structure () =
  (* the paper's Sec. 3.4 example: one left outer join, one outer union *)
  let db, p = setup Queries.fragment_text in
  let plan = Partition.unified p.Middleware.tree in
  match streams_of db p plan Sql_gen.default_options with
  | [ s ] ->
      Alcotest.(check int) "one outer join" 1 (Test_sql.count_outer_joins s.Sql_gen.query);
      Alcotest.(check int) "one union" 1 (Test_sql.count_unions s.Sql_gen.query)
  | _ -> Alcotest.fail "expected one stream"

let test_fully_partitioned_no_outer_constructs () =
  (* "a fully partitioned plan has no edges and requires none of these
     constructs" *)
  let db, p = setup Queries.query1_text in
  let plan = Partition.fully_partitioned p.Middleware.tree in
  List.iter
    (fun (s : Sql_gen.stream) ->
      Alcotest.(check int) "no outer join" 0 (Test_sql.count_outer_joins s.Sql_gen.query);
      Alcotest.(check int) "no union" 0 (Test_sql.count_unions s.Sql_gen.query))
    (streams_of db p plan Sql_gen.default_options)

let test_chain_plan_no_union () =
  (* "plans with no branches do not require the union operator": keep
     only the chain S1-S1.4-S1.4.2 *)
  let db, p = setup Queries.query1_text in
  let t = p.Middleware.tree in
  let keep =
    Array.map
      (fun (a, b) ->
        let sfi id = (View_tree.node t id).View_tree.sfi in
        (sfi a, sfi b) = ([ 1 ], [ 1; 4 ]) || (sfi a, sfi b) = ([ 1; 4 ], [ 1; 4; 2 ]))
      t.View_tree.edges
  in
  let plan = Partition.of_keep t keep in
  let big =
    List.find
      (fun (s : Sql_gen.stream) ->
        List.length s.Sql_gen.fragment.Partition.members = 3)
      (streams_of db p plan Sql_gen.default_options)
  in
  Alcotest.(check int) "two outer joins" 2 (Test_sql.count_outer_joins big.Sql_gen.query);
  Alcotest.(check int) "no union" 0 (Test_sql.count_unions big.Sql_gen.query)

let test_outer_union_style_no_outer_joins () =
  let db, p = setup Queries.query1_text in
  let plan = Partition.unified p.Middleware.tree in
  let opts = { Sql_gen.style = Sql_gen.Outer_union; labels = None } in
  match streams_of db p plan opts with
  | [ s ] ->
      Alcotest.(check int) "no outer joins" 0 (Test_sql.count_outer_joins s.Sql_gen.query);
      (* one UNION ALL per node beyond the first *)
      Alcotest.(check int) "nine unions" 9 (Test_sql.count_unions s.Sql_gen.query)
  | _ -> Alcotest.fail "expected one stream"

let test_reduction_removes_branches () =
  (* "the outer join … disappears when all children are labeled 1" *)
  let db, p = setup Queries.query1_text in
  let plan = Partition.unified p.Middleware.tree in
  let opts = { Sql_gen.style = Sql_gen.Outer_join; labels = Some p.Middleware.labels } in
  match streams_of db p plan opts with
  | [ s ] ->
      let plain =
        List.hd (streams_of db p plan Sql_gen.default_options)
      in
      Alcotest.(check bool) "fewer outer joins than non-reduced" true
        (Test_sql.count_outer_joins s.Sql_gen.query
         < Test_sql.count_outer_joins plain.Sql_gen.query);
      Alcotest.(check int) "three groups" 3 (List.length s.Sql_gen.groups)
  | _ -> Alcotest.fail "expected one stream"

let test_layout_levels_and_vars () =
  let db, p = setup Queries.query1_text in
  let plan = Partition.fully_partitioned p.Middleware.tree in
  let streams = streams_of db p plan Sql_gen.default_options in
  (* the deep nation-of-customer stream carries L1..L4 and its key vars *)
  let deep =
    List.find
      (fun (s : Sql_gen.stream) ->
        (View_tree.node p.Middleware.tree s.Sql_gen.fragment.Partition.root)
          .View_tree.sfi = [ 1; 4; 2; 3 ])
      streams
  in
  let levels =
    Array.to_list deep.Sql_gen.cols
    |> List.filter_map (function Sql_gen.Level_col j -> Some j | _ -> None)
  in
  Alcotest.(check (list int)) "levels 1..4" [ 1; 2; 3; 4 ] levels;
  let vars =
    Array.to_list deep.Sql_gen.cols
    |> List.filter_map (function Sql_gen.Var_col v -> Some v | _ -> None)
  in
  List.iter
    (fun v -> Alcotest.(check bool) ("has " ^ v) true (List.mem v vars))
    [ "s_suppkey"; "ps_partkey"; "l_orderkey"; "n3_name" ]

let test_order_by_covers_all_columns () =
  let db, p = setup Queries.query1_text in
  let plan = Partition.unified p.Middleware.tree in
  List.iter
    (fun (s : Sql_gen.stream) ->
      Alcotest.(check int) "order by arity matches output"
        (Array.length s.Sql_gen.cols)
        (List.length s.Sql_gen.query.R.Sql.order_by))
    (streams_of db p plan Sql_gen.default_options)

let test_generated_sql_round_trips () =
  let db, p = setup Queries.query2_text in
  List.iter
    (fun mask ->
      let plan = Partition.of_mask p.Middleware.tree mask in
      List.iter
        (fun (s : Sql_gen.stream) ->
          let text = R.Sql_print.to_string s.Sql_gen.query in
          let again = R.Sql_print.to_string (R.Sql_parser.parse text) in
          Alcotest.(check string) "sql text round trip" text again)
        (streams_of db p plan Sql_gen.default_options))
    [ 0; 17; 311; 511 ]

let test_correlation_on_shared_vars () =
  (* paper's example: ON (L2=1 AND nationkey) OR (L2=2 AND suppkey) *)
  let db, p = setup Queries.fragment_text in
  let plan = Partition.unified p.Middleware.tree in
  let s = List.hd (streams_of db p plan Sql_gen.default_options) in
  let text = R.Sql_print.to_string s.Sql_gen.query in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "nation correlation" true (contains "s_nationkey = q0.s_nationkey");
  Alcotest.(check bool) "part correlation" true (contains "s_suppkey = q0.s_suppkey");
  Alcotest.(check bool) "level guards" true (contains "q0.L2 = 1")

let test_var_flow_restriction_raises () =
  (* an artificial view where a join variable skips the middle block and
     is not functionally determined by what flows *)
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "A" ~key:[ "a" ]
       [ R.Schema.column "a" R.Value.TInt; R.Schema.column "x" R.Value.TInt ]);
  R.Database.add_table db
    (R.Schema.table "B" ~key:[ "b" ] [ R.Schema.column "b" R.Value.TInt ]);
  R.Database.add_table db
    (R.Schema.table "C" ~key:[ "c" ]
       [ R.Schema.column "c" R.Value.TInt; R.Schema.column "x" R.Value.TInt ]);
  let p =
    Middleware.prepare_text db
      {|view v { from A $a construct <a>
          { from B $b construct <b>
              { from C $c where $c.x = $a.x construct <c>$c.c</c> } </b> } </a> }|}
  in
  let plan = Partition.unified p.Middleware.tree in
  Alcotest.(check bool) "raises Unsupported" true
    (try
       ignore (Sql_gen.streams db p.Middleware.tree plan Sql_gen.default_options);
       false
     with View_tree.Unsupported _ -> true)

let test_fd_determined_skip_allowed () =
  (* the same shape is fine when the skipped variable is FD-determined by
     a flowing key (s_name determined by s_suppkey) — mask 24 of Query 1
     exercises exactly this *)
  let db, p = setup Queries.query1_text in
  let plan = Partition.of_mask p.Middleware.tree 24 in
  let streams = streams_of db p plan Sql_gen.default_options in
  Alcotest.(check bool) "generates" true (List.length streams > 0)

let suite =
  [
    Alcotest.test_case "unified structure (Sec. 3.4)" `Quick test_unified_fragment_structure;
    Alcotest.test_case "fully partitioned: plain SQL" `Quick test_fully_partitioned_no_outer_constructs;
    Alcotest.test_case "chain plan: no union" `Quick test_chain_plan_no_union;
    Alcotest.test_case "outer-union style" `Quick test_outer_union_style_no_outer_joins;
    Alcotest.test_case "reduction removes branches" `Quick test_reduction_removes_branches;
    Alcotest.test_case "stream layout" `Quick test_layout_levels_and_vars;
    Alcotest.test_case "ORDER BY covers columns" `Quick test_order_by_covers_all_columns;
    Alcotest.test_case "generated SQL round trips" `Quick test_generated_sql_round_trips;
    Alcotest.test_case "correlation predicates" `Quick test_correlation_on_shared_vars;
    Alcotest.test_case "var-flow restriction" `Quick test_var_flow_restriction_raises;
    Alcotest.test_case "FD-determined skip allowed" `Quick test_fd_determined_skip_allowed;
  ]
