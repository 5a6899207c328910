(* Randomized end-to-end property: generate random RXL views over the
   TPC-H schema (joining along foreign keys in either direction), pick
   random partitions, and check every variant against the naive
   materialization.  This is the broadest soundness net in the suite —
   it exercises view-tree construction, labeling, reduction, SQL
   generation and the merge tagger on shapes no hand-written test
   covers. *)

open Silkroute
module R = Relational

(* Foreign-key graph of the TPC-H schema as (table, col) <-> (table, col)
   join opportunities. *)
let join_edges =
  List.concat_map
    (fun (t : R.Schema.table) ->
      List.filter_map
        (fun (fk : R.Schema.foreign_key) ->
          match (fk.fk_cols, fk.ref_cols) with
          | [ c ], [ rc ] -> Some ((t.name, c), (fk.ref_table, rc))
          | _ -> None (* composite FKs skipped for generation simplicity *))
        t.foreign_keys)
    Tpch.Gen.schema_tables

(* Tables reachable from [table] by one FK hop, with the join columns. *)
let neighbors table =
  List.concat_map
    (fun ((t1, c1), (t2, c2)) ->
      if t1 = table then [ (t2, c1, c2) ]
      else if t2 = table then [ (t1, c2, c1) ]
      else [])
    join_edges

let columns_of table =
  R.Schema.column_names
    (List.find (fun (t : R.Schema.table) -> t.name = table) Tpch.Gen.schema_tables)

(* Generate a random view.  The structure is a tree of blocks: each block
   binds one new table joined to its parent block's table, constructs one
   element with one text field and up to two child blocks. *)
let gen_view : Rxl.view QCheck.Gen.t =
  let open QCheck.Gen in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  let rec gen_block parent_var parent_table depth =
    let nbrs = neighbors parent_table in
    if nbrs = [] then return None
    else
      let* table, pc, cc = oneofl nbrs in
      let var = fresh () in
      let* col = oneofl (columns_of table) in
      let* n_children =
        if depth <= 0 then return 0 else int_bound 2
      in
      let* children =
        List.init n_children (fun _ -> gen_block var table (depth - 1))
        |> flatten_l
      in
      let children = List.filter_map (fun c -> c) children in
      let tag = Printf.sprintf "e%s" var in
      return
        (Some
           (Rxl.Block
              {
                Rxl.from_ = [ Rxl.binding var table ];
                where_ =
                  [ Rxl.cond R.Expr.Eq (Rxl.field parent_var pc)
                      (Rxl.field var cc) ];
                construct =
                  [
                    Rxl.element tag
                      (Rxl.Text (Rxl.field var col) :: children);
                  ];
              }))
  in
  let* root_table =
    oneofl [ "Supplier"; "Customer"; "Orders"; "Part"; "Nation"; "LineItem" ]
  in
  counter := 0;
  let var = fresh () in
  let* col = oneofl (columns_of root_table) in
  let* n_children = int_range 0 3 in
  let* children =
    List.init n_children (fun _ -> gen_block var root_table 2) |> flatten_l
  in
  let children = List.filter_map (fun c -> c) children in
  return
    (Rxl.view "root"
       [
         Rxl.query
           [ Rxl.binding var root_table ]
           [ Rxl.element "top" (Rxl.Text (Rxl.field var col) :: children) ];
       ])

let print_view v = Rxl.to_string v

let check_view (v, mask_seed) =
  let view = Matrix.of_rxl v and db = Matrix.tpch 0.08 in
  let tree = (Matrix.truth view db).p.tree in
  let full = (1 lsl View_tree.edge_count tree) - 1 in
  let masks = Matrix.only [ 0; full; mask_seed land full ] in
  (* Sql_gen.Unsupported is the documented, cleanly-reported limitation
     (a join variable skipping intermediate blocks without being
     FD-determined); a random view may hit it, and rejecting such a plan
     is correct behaviour *)
  let skip = function Sql_gen.Unsupported _ -> true | _ -> false in
  Matrix.(check ~skip [ slice view db ~masks ~points:[ oj; oj_reduced; ou ] ]);
  true

let prop_random_views =
  QCheck.Test.make ~name:"random TPC-H views: every plan = naive" ~count:60
    (QCheck.make
       ~print:(fun (v, m) -> Printf.sprintf "mask-seed %d\n%s" m (print_view v))
       QCheck.Gen.(pair gen_view (int_bound max_int)))
    check_view

let props = [ prop_random_views ]
