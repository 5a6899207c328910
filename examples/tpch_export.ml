(* TPC-H export: materialize the paper's Query 1 view of a generated
   TPC-H database under all three strategies — fully partitioned,
   unified, and greedy — and check they produce identical XML.

   This is the paper's data-export scenario: shipping the whole database
   as one XML document whose shape is fixed by a DTD agreed between
   business partners.

   Run with:  dune exec examples/tpch_export.exe [scale] *)

module R = Relational
module S = Silkroute

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.5
  in
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  Printf.printf "TPC-H database: scale %.2f, %d rows, %d KB\n%!" scale
    (R.Database.total_rows db)
    (R.Database.total_bytes db / 1024);

  let p = S.Middleware.prepare_text db S.Queries.query1_text in
  Printf.printf "\nview tree (%d nodes, %d edges):\n%s\n"
    (S.View_tree.node_count p.S.Middleware.tree)
    (S.View_tree.edge_count p.S.Middleware.tree)
    (S.View_tree.to_string p.S.Middleware.tree);
  Printf.printf "edge labels:\n%s\n\n"
    (S.Label.to_string p.S.Middleware.tree p.S.Middleware.labels);

  let run name strategy =
    let plan = S.Middleware.partition_of ~reduce:true p strategy in
    let e = S.Middleware.execute ~reduce:true p plan in
    let doc = S.Middleware.document_of p e in
    Printf.printf
      "%-18s %2d streams  %8d work  %6d tuples  total %7.1f ms (sim)\n%!" name
      (S.Partition.stream_count plan) e.S.Middleware.work e.S.Middleware.tuples
      ((float_of_int e.S.Middleware.work /. 50.0) +. e.S.Middleware.transfer_ms);
    doc
  in
  let d1 = run "fully partitioned" S.Middleware.Fully_partitioned in
  let d2 = run "unified" S.Middleware.Unified in
  let d3 = run "greedy" S.Middleware.Greedy in

  Printf.printf "\nall strategies agree: %b\n"
    (Xmlkit.Xml.equal d1 d2 && Xmlkit.Xml.equal d2 d3);
  Printf.printf "document: %d elements, %d bytes, DTD-valid: %b\n"
    (Xmlkit.Xml.count_elements d3)
    (Xmlkit.Serialize.byte_size d3)
    (Xmlkit.Validate.is_valid S.Queries.dtd_query1 d3);

  (* print the first supplier as a sample *)
  (match Xmlkit.Xml.children_named (Xmlkit.Xml.root d3) "supplier" with
  | first :: _ ->
      print_endline "\nfirst supplier element:";
      print_string (Xmlkit.Serialize.to_pretty_string (Xmlkit.Xml.document first))
  | [] -> ());

  (* downstream consumers extract fragments with the XPath subset *)
  Printf.printf "\nXPath over the materialized view:\n";
  Printf.printf "  //part           -> %d elements\n" (Xmlkit.Xpath.count d3 "//part");
  Printf.printf "  //order/customer -> %d elements\n"
    (Xmlkit.Xpath.count d3 "//order/customer");
  (match Xmlkit.Xpath.select_text d3 "/suppliers/supplier[1]/name" with
  | [ name ] ->
      Printf.printf "  parts of %S     -> %d\n" name
        (Xmlkit.Xpath.count d3
           (Printf.sprintf "//supplier[name='%s']/part" name))
  | _ -> ())
