(* Table statistics: row counts, per-column distinct counts and average
   wire widths.  This is the information a commercial optimizer keeps in
   its catalog; our cost oracle derives estimates from it (the paper uses
   the target RDBMS "as an oracle, providing the values for the functions
   evaluation_cost and cardinality").  Beside the figures, the catalog
   keeps the source description's keys and declared foreign keys, as
   column bitmasks resolved once here, so the oracle can bound the
   distinct values of a key or FK column set without reading schemas. *)

type column_stats = { distinct : int; avg_width : float; null_fraction : float }

type table_id = int

(* One table's figures.  [cols] is by stored-column position; [key]:
   the primary key's columns as a bitmask over those positions, 0 when
   there is none (or it lies past the mask's width); [fks]: each
   declared foreign key's mask with the referenced table. *)
type entry = {
  row_count : int;
  cols : column_stats array;
  key : int;
  fks : (int * table_id) list;
}

type t = { ids : (string, table_id) Hashtbl.t; entries : entry array }

let analyze_columns db name =
  let data = Database.raw_data db name in
  let n = Array.length data in
  Array.init (Schema.arity (Database.schema db name)) (fun i ->
      let seen = Value.Tbl.create (max 16 n) in
      let width = ref 0 in
      let nulls = ref 0 in
      Array.iter
        (fun row ->
          let v = row.(i) in
          if Value.is_null v then incr nulls;
          width := !width + Value.wire_size v;
          Value.Tbl.replace seen v ())
        data;
      {
        distinct = max 1 (Value.Tbl.length seen);
        avg_width = (if n = 0 then 8.0 else float_of_int !width /. float_of_int n);
        null_fraction = (if n = 0 then 0.0 else float_of_int !nulls /. float_of_int n);
      })

(* A column list as a bitmask of stored positions; 0 when a column is
   unknown or past the mask's width, so the set is never covered. *)
let mask_of schema cols =
  try
    List.fold_left
      (fun m c ->
        match Schema.column_index schema c with
        | Some i when i < Sys.int_size - 1 -> m lor (1 lsl i)
        | _ -> raise Exit)
      0 cols
  with Exit -> 0

let analyze db : t =
  let names = Database.table_names db in
  let ids = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let entry name =
    let schema = Database.schema db name in
    {
      row_count = Array.length (Database.raw_data db name);
      cols = analyze_columns db name;
      key = mask_of schema schema.Schema.key;
      fks =
        List.filter_map
          (fun (fk : Schema.foreign_key) ->
            match (mask_of schema fk.fk_cols, Hashtbl.find_opt ids fk.ref_table) with
            | 0, _ | _, None -> None
            | m, Some r -> Some (m, r))
          schema.Schema.foreign_keys;
    }
  in
  { ids; entries = Array.of_list (List.map entry names) }

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Stats: no statistics for %s" name)

(* Deliberately skew one table's statistics: multiply its row count and
   per-column NDVs by [factor] (clamped to >= 1 row / 1 value).  This is
   the diagnostics test fixture — a stale or wrong catalog entry — that
   `run --diagnose --skew-stats` uses to prove the anomaly detector
   flags the resulting misestimates. *)
let scale_table t name factor =
  if not (Float.is_finite factor && factor > 0.0) then
    invalid_arg "Stats.scale_table: factor must be finite and > 0";
  match Hashtbl.find_opt t.ids name with
  | None -> invalid_arg (Printf.sprintf "Stats.scale_table: no table %s" name)
  | Some i ->
      let e = t.entries.(i) in
      (* an out-of-range product fails (int_of_float would make it a
         1-row table) before anything is replaced *)
      let scale n =
        let x = float_of_int n *. factor in
        if x >= Float.of_int max_int then
          invalid_arg "Stats.scale_table: scaled count overflows";
        max 1 (int_of_float x)
      in
      t.entries.(i) <-
        {
          e with
          row_count = scale e.row_count;
          cols = Array.map (fun cs -> { cs with distinct = scale cs.distinct }) e.cols;
        }

let rows t i = t.entries.(i).row_count

let column_at t i pos =
  let cols = t.entries.(i).cols in
  if pos >= 0 && pos < Array.length cols then Some cols.(pos) else None

(* A superset of the key still names one row; a foreign key bounds its
   own columns only, since any further column adds values of its own. *)
let distinct_bound t i mask =
  let e = t.entries.(i) in
  List.fold_left
    (fun b (m, r) -> if m = mask then Float.min b (float_of_int (rows t r)) else b)
    (if e.key <> 0 && e.key land mask = e.key then float_of_int e.row_count
     else Float.infinity)
    e.fks
