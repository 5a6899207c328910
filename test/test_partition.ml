(* Partitioning: edge subsets, fragments, masks (paper Sec. 3.2). *)

open Silkroute

let tree () =
  View_tree.of_view (Tpch.Gen.empty_database ()) (Rxl_parser.parse Queries.query1_text)

let test_plan_count () =
  let t = tree () in
  Alcotest.(check int) "2^9 plans" 512 (List.length (Partition.all_masks t))

let test_unified_one_fragment () =
  let t = tree () in
  let p = Partition.unified t in
  Alcotest.(check int) "one stream" 1 (Partition.stream_count p);
  let frag = List.hd (Partition.fragments p) in
  Alcotest.(check int) "all members" 10 (List.length frag.Partition.members);
  Alcotest.(check int) "root is S1" 0 frag.Partition.root;
  Alcotest.(check int) "all edges internal" 9 (List.length frag.Partition.internal_edges)

let test_fully_partitioned () =
  let t = tree () in
  let p = Partition.fully_partitioned t in
  Alcotest.(check int) "ten streams" 10 (Partition.stream_count p);
  List.iter
    (fun f ->
      Alcotest.(check int) "singleton" 1 (List.length f.Partition.members);
      Alcotest.(check (list (pair int int))) "no internal edges" []
        f.Partition.internal_edges)
    (Partition.fragments p)

let test_mask_round_trip () =
  let t = tree () in
  List.iter
    (fun mask ->
      Alcotest.(check int) "mask round trip" mask
        (Partition.to_mask (Partition.of_mask t mask)))
    [ 0; 1; 37; 255; 511 ]

let test_mask_bounds () =
  let t = tree () in
  Alcotest.(check bool) "negative rejected" true
    (try ignore (Partition.of_mask t (-1)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "overflow rejected" true
    (try ignore (Partition.of_mask t 512); false with Invalid_argument _ -> true)

let test_keep_cut_complementary () =
  let t = tree () in
  List.iter
    (fun mask ->
      let p = Partition.of_mask t mask in
      let rec bits m = if m = 0 then 0 else (m land 1) + bits (m lsr 1) in
      Alcotest.(check int) "kept = the mask's set bits, the other 9 - k cut"
        (bits mask) (List.length (Partition.kept_edges p)))
    [ 0; 5; 130; 511 ]

let test_stream_count_formula () =
  (* cutting k edges of a tree yields k+1 components *)
  let t = tree () in
  List.iter
    (fun mask ->
      let p = Partition.of_mask t mask in
      Alcotest.(check int) "components = cuts + 1"
        (Array.length t.View_tree.edges - List.length (Partition.kept_edges p) + 1)
        (Partition.stream_count p))
    (Partition.all_masks t)

let test_fragments_partition_nodes () =
  let t = tree () in
  List.iter
    (fun mask ->
      let p = Partition.of_mask t mask in
      let all =
        List.concat_map (fun f -> f.Partition.members) (Partition.fragments p)
      in
      Alcotest.(check (list int)) "every node exactly once"
        (List.init 10 (fun i -> i))
        (List.sort compare all))
    [ 0; 9; 73; 255; 511 ]

let test_fragment_roots_are_shallowest () =
  let t = tree () in
  List.iter
    (fun mask ->
      let p = Partition.of_mask t mask in
      List.iter
        (fun f ->
          let root = View_tree.node t f.Partition.root in
          (* the root's parent is outside the fragment *)
          match root.View_tree.parent with
          | None -> ()
          | Some pid ->
              Alcotest.(check bool) "parent outside" false
                (List.mem pid f.Partition.members))
        (Partition.fragments p))
    [ 3; 68; 300 ]

let test_keep_array_validation () =
  let t = tree () in
  Alcotest.(check bool) "wrong length rejected" true
    (try ignore (Partition.of_keep t [| true |]); false
     with Invalid_argument _ -> true)

let test_to_string () =
  let t = tree () in
  let p = Partition.of_mask t 1 in
  Alcotest.(check string) "first edge named" "{S1-S1.1}" (Partition.to_string p)

let suite =
  [
    Alcotest.test_case "512 plans" `Quick test_plan_count;
    Alcotest.test_case "unified plan" `Quick test_unified_one_fragment;
    Alcotest.test_case "fully partitioned plan" `Quick test_fully_partitioned;
    Alcotest.test_case "mask round trip" `Quick test_mask_round_trip;
    Alcotest.test_case "mask bounds" `Quick test_mask_bounds;
    Alcotest.test_case "kept/cut complementary" `Quick test_keep_cut_complementary;
    Alcotest.test_case "streams = cuts + 1" `Quick test_stream_count_formula;
    Alcotest.test_case "fragments partition nodes" `Quick test_fragments_partition_nodes;
    Alcotest.test_case "fragment roots shallowest" `Quick test_fragment_roots_are_shallowest;
    Alcotest.test_case "keep array validation" `Quick test_keep_array_validation;
    Alcotest.test_case "plan rendering" `Quick test_to_string;
  ]

let prop_fragments_connected =
  QCheck.Test.make ~name:"fragment members are connected" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 511)) (fun mask ->
      let t = tree () in
      let p = Partition.of_mask t mask in
      List.for_all
        (fun f ->
          (* every non-root member's parent is in the fragment *)
          List.for_all
            (fun m ->
              m = f.Partition.root
              ||
              match (View_tree.node t m).View_tree.parent with
              | Some pid -> List.mem pid f.Partition.members
              | None -> false)
            f.Partition.members)
        (Partition.fragments p))

let props = [ prop_fragments_connected ]
