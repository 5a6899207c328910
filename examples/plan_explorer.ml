(* Plan explorer: visualize what the planner chooses from — the view
   tree, its edge labels, reduction groups, and the SQL generated for a
   handful of contrasting partitions of the paper's Query 1.

   Run with:  dune exec examples/plan_explorer.exe *)

module R = Relational
module S = Silkroute

let show_plan db (p : S.Middleware.prepared) name mask ~reduce =
  let plan = S.Partition.of_mask p.S.Middleware.tree mask in
  Printf.printf "\n### %s — mask %d, %d stream(s), kept edges %s%s\n" name mask
    (S.Partition.stream_count plan)
    (S.Partition.to_string plan)
    (if reduce then " [with view-tree reduction]" else "");
  let opts =
    { S.Sql_gen.style = S.Sql_gen.Outer_join;
      labels = (if reduce then Some p.S.Middleware.labels else None) }
  in
  List.iteri
    (fun i (s : S.Sql_gen.stream) ->
      Printf.printf "\n-- stream %d (fragment rooted at %s, groups %s):\n" (i + 1)
        (S.View_tree.skolem_name
           (S.View_tree.node p.S.Middleware.tree s.S.Sql_gen.fragment.S.Partition.root)
             .S.View_tree.sfi)
        (S.Reduce.to_string p.S.Middleware.tree s.S.Sql_gen.groups);
      print_endline (R.Sql_print.to_pretty_string s.S.Sql_gen.query))
    (S.Sql_gen.streams db p.S.Middleware.tree plan opts)

let () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let p = S.Middleware.prepare_text db S.Queries.query1_text in

  print_endline "=== Query 1 (paper Fig. 3) ===";
  print_endline S.Queries.query1_text;
  print_endline "=== view tree with datalog annotations (paper Fig. 6) ===";
  print_endline (S.View_tree.to_string p.S.Middleware.tree);
  print_endline "=== edge multiplicity labels (paper Sec. 3.5) ===";
  print_endline (S.Label.to_string p.S.Middleware.tree p.S.Middleware.labels);

  (* contrasting plans: the two defaults, the chain, and a good middle one *)
  show_plan db p "fully partitioned" 0 ~reduce:false;
  show_plan db p "unified (paper Sec. 3.4 shape)" 511 ~reduce:false;
  show_plan db p "unified, reduced (paper Fig. 11)" 511 ~reduce:true;

  (* what the greedy planner picks *)
  let result = S.Middleware.gen_plan p ~reduce:true in
  Printf.printf "\n=== greedy planner (paper Fig. 17) ===\n%s\n"
    (S.Planner.to_string p.S.Middleware.tree result);
  let best = S.Planner.best_plan p.S.Middleware.tree result in
  show_plan db p "greedy best plan" (S.Partition.to_mask best) ~reduce:true
