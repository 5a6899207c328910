(* The catalog: stored tables, their constraints, and declared inclusion
   dependencies.  This is the "target RDBMS" state the middleware queries
   and the "source description" it plans against. *)

type stored = { schema : Schema.table; mutable data : Tuple.t array }

type t = {
  tables : (string, stored) Hashtbl.t;
  mutable inclusions : Schema.inclusion list;
}

exception Constraint_violation of string

let create () = { tables = Hashtbl.create 16; inclusions = [] }

let add_table db (schema : Schema.table) =
  if Hashtbl.mem db.tables schema.name then
    invalid_arg (Printf.sprintf "Database.add_table: %s already exists" schema.name);
  Hashtbl.replace db.tables schema.name { schema; data = [||] }

let declare_inclusion db inc = db.inclusions <- inc :: db.inclusions
let inclusions db = db.inclusions

let find db name = Hashtbl.find_opt db.tables name

let find_exn db name =
  match find db name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Database: no table %s" name)

let schema db name = (find_exn db name).schema
let mem db name = Hashtbl.mem db.tables name

let table_names db =
  Hashtbl.fold (fun k _ acc -> k :: acc) db.tables [] |> List.sort compare

let typecheck_row (schema : Schema.table) (row : Tuple.t) =
  let cols = Array.of_list schema.columns in
  if Tuple.arity row <> Array.length cols then
    raise
      (Constraint_violation
         (Printf.sprintf "%s: arity %d, expected %d" schema.name
            (Tuple.arity row) (Array.length cols)));
  Array.iteri
    (fun i v ->
      let c = cols.(i) in
      match Value.type_of v with
      | None ->
          if not c.Schema.nullable then
            raise
              (Constraint_violation
                 (Printf.sprintf "%s.%s: NULL in NOT NULL column" schema.name
                    c.Schema.col_name))
      | Some ty ->
          if ty <> c.Schema.col_ty then
            raise
              (Constraint_violation
                 (Printf.sprintf "%s.%s: %s value in %s column" schema.name
                    c.Schema.col_name (Value.ty_name ty)
                    (Value.ty_name c.Schema.col_ty))))
    row

let insert db name rows =
  let s = find_exn db name in
  List.iter (typecheck_row s.schema) rows;
  s.data <- Array.append s.data (Array.of_list rows)

let load db name rows =
  let s = find_exn db name in
  List.iter (typecheck_row s.schema) rows;
  s.data <- Array.of_list rows

let row_count db name = Array.length (find_exn db name).data
let raw_data db name = (find_exn db name).data

let positions_of (schema : Schema.table) cols =
  Array.of_list
    (List.map
       (fun c ->
         match Schema.column_index schema c with
         | Some i -> i
         | None ->
             invalid_arg
               (Printf.sprintf "Database: %s has no column %s" schema.name c))
       cols)

(* Integrity checking: used by tests and by the TPC-H generator's
   self-check.  Returns the list of violations instead of raising so the
   tests can assert on specific failures.  Keys are compared as the
   engine compares them, by {!Value.equal}: [Int 2] matches [Float 2.0],
   and two FLOAT keys that print alike stay distinct. *)
let show_key k = String.concat "," (Array.to_list (Array.map Value.to_string k))

let check_keys db name =
  let s = find_exn db name in
  if s.schema.key = [] then []
  else
    let pos = positions_of s.schema s.schema.key in
    let seen = Tuple.Tbl.create (Array.length s.data) in
    Array.fold_left
      (fun acc row ->
        let k = Tuple.project pos row in
        if Tuple.Tbl.mem seen k then
          Printf.sprintf "%s: duplicate key (%s)" name (show_key k) :: acc
        else (
          Tuple.Tbl.add seen k ();
          acc))
      [] s.data

(* The keys of [rows] at [pos], as a set. *)
let key_set pos rows =
  let keys = Tuple.Tbl.create (Array.length rows) in
  Array.iter (fun row -> Tuple.Tbl.replace keys (Tuple.project pos row) ()) rows;
  keys

let check_foreign_keys db name =
  let s = find_exn db name in
  List.concat_map
    (fun (fk : Schema.foreign_key) ->
      match find db fk.ref_table with
      | None -> [ Printf.sprintf "%s: FK references missing table %s" name fk.ref_table ]
      | Some target ->
          let src_pos = positions_of s.schema fk.fk_cols in
          let keys = key_set (positions_of target.schema fk.ref_cols) target.data in
          Array.fold_left
            (fun acc row ->
              let k = Tuple.project src_pos row in
              if Array.exists Value.is_null k || Tuple.Tbl.mem keys k then acc
              else
                Printf.sprintf "%s: dangling FK (%s) -> %s" name (show_key k)
                  fk.ref_table
                :: acc)
            [] s.data)
    s.schema.foreign_keys

let check_inclusion db (inc : Schema.inclusion) =
  match (find db inc.inc_table, find db inc.inc_ref_table) with
  | Some src, Some dst ->
      let src_pos = positions_of src.schema inc.inc_cols in
      let keys = key_set (positions_of dst.schema inc.inc_ref_cols) dst.data in
      Array.for_all
        (fun row ->
          let k = Tuple.project src_pos row in
          Array.exists Value.is_null k || Tuple.Tbl.mem keys k)
        src.data
  | _ -> false

let check_integrity db =
  List.concat_map
    (fun name -> check_keys db name @ check_foreign_keys db name)
    (table_names db)

let total_rows db =
  List.fold_left (fun acc n -> acc + row_count db n) 0 (table_names db)

let total_bytes db =
  List.fold_left
    (fun acc n ->
      Array.fold_left (fun a r -> a + Tuple.wire_size r) acc (raw_data db n))
    0 (table_names db)
