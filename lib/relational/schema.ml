(* Relation schemas and integrity constraints.  The constraint metadata is
   the paper's "source description": it drives view-tree edge labeling
   (functional and inclusion dependencies) and view-tree reduction. *)

type column = { col_name : string; col_ty : Value.ty; nullable : bool }

type foreign_key = {
  fk_cols : string list;
  ref_table : string;
  ref_cols : string list;
}

(* A declared inclusion dependency table[cols] <= ref-side.  Foreign keys
   give the child-to-parent direction for free; [total] records the
   parent-to-child direction ("every supplier has at least one part"),
   which the labeler needs for the C2 test of Sec. 3.5. *)
type inclusion = {
  inc_table : string;
  inc_cols : string list;
  inc_ref_table : string;
  inc_ref_cols : string list;
}

type table = {
  name : string;
  columns : column list;
  key : string list;
  foreign_keys : foreign_key list;
}

let column ?(nullable = false) col_name col_ty = { col_name; col_ty; nullable }

let table ?(foreign_keys = []) name ~key columns =
  List.iter
    (fun k ->
      if not (List.exists (fun c -> c.col_name = k) columns) then
        invalid_arg
          (Printf.sprintf "Schema.table %s: key column %s not declared" name k))
    key;
  { name; columns; key; foreign_keys }

let find_column t name =
  List.find_opt (fun c -> c.col_name = name) t.columns

let column_index t name =
  let rec go i = function
    | [] -> None
    | c :: _ when c.col_name = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let column_names t = List.map (fun c -> c.col_name) t.columns
let arity t = List.length t.columns

let has_column t name = find_column t name <> None

