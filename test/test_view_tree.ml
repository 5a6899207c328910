(* View trees: structure, Skolem indices, rules, delta decomposition,
   sort attributes, instance semantics (paper Sec. 3.1). *)

open Silkroute
module R = Relational
module D = Datalog

let tree_of text db = View_tree.of_view db (Rxl_parser.parse text)

let q1_tree db = tree_of Queries.query1_text db
let q2_tree db = tree_of Queries.query2_text db

let children_count t id =
  Array.fold_left (fun n (p, _) -> if p = id then n + 1 else n) 0 t.View_tree.edges

let name_of t id = View_tree.skolem_name (View_tree.node t id).View_tree.sfi

let test_q1_shape () =
  let t = q1_tree (Tpch.Gen.empty_database ()) in
  Alcotest.(check int) "10 nodes" 10 (View_tree.node_count t);
  Alcotest.(check int) "9 edges" 9 (View_tree.edge_count t);
  Alcotest.(check (list int)) "one root" [ 0 ] (Array.to_list t.View_tree.nodes
     |> List.filter_map (fun n ->
            if n.View_tree.parent = None then Some n.View_tree.id else None));
  (* Fig. 6: S1 has four children, S1.4 two, S1.4.2 three *)
  Alcotest.(check int) "S1 children" 4 (children_count t 0);
  let part =
    Array.to_list t.View_tree.nodes
    |> List.find (fun n -> n.View_tree.sfi = [ 1; 4 ])
  in
  Alcotest.(check string) "S1.4 is part" "part" part.View_tree.tag;
  Alcotest.(check int) "part children" 2 (children_count t part.View_tree.id)

let test_q2_shape () =
  let t = q2_tree (Tpch.Gen.empty_database ()) in
  Alcotest.(check int) "10 nodes" 10 (View_tree.node_count t);
  Alcotest.(check int) "9 edges" 9 (View_tree.edge_count t);
  (* Fig. 12: the two one-to-many blocks are parallel under S1 *)
  Alcotest.(check int) "S1 children" 5 (children_count t 0)

let test_skolem_names () =
  let t = q1_tree (Tpch.Gen.empty_database ()) in
  let names = Array.to_list (Array.map (fun n -> View_tree.skolem_name n.View_tree.sfi) t.View_tree.nodes) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has " ^ expected) true (List.mem expected names))
    [ "S1"; "S1.1"; "S1.2"; "S1.3"; "S1.4"; "S1.4.1"; "S1.4.2";
      "S1.4.2.1"; "S1.4.2.2"; "S1.4.2.3" ]

let test_rules_match_paper_fig4 () =
  (* the fragment query's tree is exactly Fig. 4 *)
  let db = Tpch.Gen.empty_database () in
  let t = tree_of Queries.fragment_text db in
  Alcotest.(check int) "3 nodes" 3 (View_tree.node_count t);
  let root = View_tree.node t 0 in
  Alcotest.(check string) "root rule"
    "S1(s_suppkey) :- Supplier(s_suppkey, _, _, s_nationkey)"
    (D.Rule.to_string root.View_tree.rule);
  let nation = View_tree.node t 1 in
  (* shared variable s_nationkey encodes the join, as in Fig. 4 *)
  Alcotest.(check string) "nation rule"
    "S1.1(s_suppkey, s_nationkey, n_name) :- Supplier(s_suppkey, _, _, s_nationkey), Nation(s_nationkey, n_name, _)"
    (D.Rule.to_string nation.View_tree.rule)

let test_key_vars_accumulate_scope () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  let order =
    Array.to_list t.View_tree.nodes
    |> List.find (fun n -> n.View_tree.sfi = [ 1; 4; 2 ])
  in
  (* order's identity includes supplier, partsupp, part, lineitem, orders keys *)
  List.iter
    (fun v ->
      Alcotest.(check bool) ("key var " ^ v) true
        (List.mem v order.View_tree.key_vars))
    [ "s_suppkey"; "ps_partkey"; "l_orderkey"; "l_lno" ]

let test_delta_decomposition () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  let by_sfi sfi =
    Array.to_list t.View_tree.nodes |> List.find (fun n -> n.View_tree.sfi = sfi)
  in
  (* the <name> leaf introduces no atoms *)
  Alcotest.(check int) "name delta empty" 0
    (List.length (by_sfi [ 1; 1 ]).View_tree.delta_atoms);
  (* nation introduces exactly the Nation atom *)
  Alcotest.(check int) "nation delta" 1
    (List.length (by_sfi [ 1; 2 ]).View_tree.delta_atoms);
  (* part introduces PartSupp and Part *)
  Alcotest.(check int) "part delta" 2
    (List.length (by_sfi [ 1; 4 ]).View_tree.delta_atoms)

let test_svi_assignment () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  (* suppkey is introduced at the root: level 1, first variable *)
  Alcotest.(check (option (pair int int))) "suppkey (1,1)" (Some (1, 1))
    (List.assoc_opt "s_suppkey" t.View_tree.svi);
  (* every head variable has an SVI *)
  Array.iter
    (fun n ->
      List.iter
        (fun v ->
          Alcotest.(check bool) ("svi for " ^ v) true (List.mem_assoc v t.View_tree.svi))
        n.View_tree.rule.D.Rule.head_vars)
    t.View_tree.nodes;
  (* SVIs are unique *)
  let svis = List.map snd t.View_tree.svi in
  Alcotest.(check int) "unique" (List.length svis)
    (List.length (List.sort_uniq compare svis))

let test_contents () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  let name =
    Array.to_list t.View_tree.nodes |> List.find (fun n -> n.View_tree.sfi = [ 1; 1 ])
  in
  (match name.View_tree.contents with
  | [ (_, View_tree.Content_var v) ] ->
      Alcotest.(check string) "content var" "s_name" v
  | _ -> Alcotest.fail "expected one content var")

let test_sort_attrs_structure () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  let attrs = View_tree.sort_attrs t in
  (* starts with L1 then the level-1 key *)
  (match attrs with
  | View_tree.Level 1 :: View_tree.Variable "s_suppkey" :: _ -> ()
  | _ -> Alcotest.fail "expected L1, s_suppkey prefix");
  (* levels appear in order 1..4 *)
  let levels = List.filter_map (function View_tree.Level j -> Some j | _ -> None) attrs in
  Alcotest.(check (list int)) "levels" [ 1; 2; 3; 4 ] levels;
  (* content vars come after all levels *)
  let positions = List.mapi (fun i a -> (a, i)) attrs in
  let pos_of a = List.assoc a positions in
  Alcotest.(check bool) "content after last level" true
    (pos_of (View_tree.Variable "s_name") > pos_of (View_tree.Level 4))

let test_instances_ground_truth () =
  let db = Tpch.Gen.figure8_database () in
  let t = tree_of Queries.fragment_text db in
  Alcotest.(check int) "3 suppliers" 3
    (R.Relation.cardinality (View_tree.instances db t 0));
  Alcotest.(check int) "3 nations" 3
    (R.Relation.cardinality (View_tree.instances db t 1));
  Alcotest.(check int) "3 parts" 3
    (R.Relation.cardinality (View_tree.instances db t 2))

let test_explicit_skolem_respected () =
  let db = Tpch.Gen.empty_database () in
  let t =
    tree_of
      {|view x { from Supplier $s construct <e skolem=MyF>$s.name</e> }|}
      db
  in
  Alcotest.(check string) "head name" "MyF"
    (View_tree.node t 0).View_tree.rule.D.Rule.head_name

let test_same_table_twice_distinct_aliases () =
  let db = Tpch.Gen.empty_database () in
  let t = q1_tree db in
  (* Query 1 binds Nation three times ($n, $n2, $n3); aliases must differ *)
  let aliases =
    Array.to_list t.View_tree.nodes
    |> List.concat_map (fun n -> n.View_tree.scope)
    |> List.filter (fun (_, table) -> table = "Nation")
    |> List.map fst
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "three nation aliases" 3 (List.length aliases)

let test_edges_parent_before_child () =
  let db = Tpch.Gen.empty_database () in
  List.iter
    (fun t ->
      Array.iter
        (fun (p, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "edge %s->%s ordered" (name_of t p) (name_of t c))
            true (p < c))
        t.View_tree.edges)
    [ q1_tree db; q2_tree db ]

let test_pp_smoke () =
  let db = Tpch.Gen.empty_database () in
  let s = View_tree.to_string (q1_tree db) in
  Alcotest.(check bool) "mentions supplier" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 8 <= String.length s && (String.sub s i 8 = "supplier" || contains (i + 1))
    in
    contains 0)

let suite =
  [
    Alcotest.test_case "Query 1 shape (Fig. 6)" `Quick test_q1_shape;
    Alcotest.test_case "Query 2 shape (Fig. 12)" `Quick test_q2_shape;
    Alcotest.test_case "Skolem names" `Quick test_skolem_names;
    Alcotest.test_case "rules match Fig. 4" `Quick test_rules_match_paper_fig4;
    Alcotest.test_case "key vars accumulate scope" `Quick test_key_vars_accumulate_scope;
    Alcotest.test_case "delta decomposition" `Quick test_delta_decomposition;
    Alcotest.test_case "SVI assignment" `Quick test_svi_assignment;
    Alcotest.test_case "contents" `Quick test_contents;
    Alcotest.test_case "sort attributes" `Quick test_sort_attrs_structure;
    Alcotest.test_case "instance ground truth" `Quick test_instances_ground_truth;
    Alcotest.test_case "explicit Skolem" `Quick test_explicit_skolem_respected;
    Alcotest.test_case "repeated table aliases" `Quick test_same_table_twice_distinct_aliases;
    Alcotest.test_case "edge ordering" `Quick test_edges_parent_before_child;
    Alcotest.test_case "pretty printing" `Quick test_pp_smoke;
  ]
