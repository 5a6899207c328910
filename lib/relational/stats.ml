(* Table statistics: row counts, per-column distinct counts and average
   wire widths.  This is the information a commercial optimizer keeps in
   its catalog; our cost oracle derives estimates from it (the paper uses
   the target RDBMS "as an oracle, providing the values for the functions
   evaluation_cost and cardinality"). *)

type column_stats = { distinct : int; avg_width : float; null_fraction : float }

type table_stats = {
  row_count : int;
  columns : (string * column_stats) list;
}

type t = { by_table : (string, table_stats) Hashtbl.t }

let analyze_table db name : table_stats =
  let schema = Database.schema db name in
  let data = Database.raw_data db name in
  let n = Array.length data in
  let cols = Schema.column_names schema in
  let columns =
    List.mapi
      (fun i col ->
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
        let stats =
          {
            distinct = max 1 (Value.Tbl.length seen);
            avg_width = (if n = 0 then 8.0 else float_of_int !width /. float_of_int n);
            null_fraction = (if n = 0 then 0.0 else float_of_int !nulls /. float_of_int n);
          }
        in
        (col, stats))
      cols
  in
  { row_count = n; columns }

let analyze db : t =
  let by_table = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace by_table name (analyze_table db name))
    (Database.table_names db);
  { by_table }

(* Deliberately skew one table's statistics: multiply its row count and
   per-column NDVs by [factor] (clamped to >= 1 row / 1 value).  This is
   the diagnostics test fixture — a stale or wrong catalog entry — that
   `run --diagnose --skew-stats` uses to prove the anomaly detector
   flags the resulting misestimates. *)
let scale_table t name factor =
  if not (Float.is_finite factor && factor > 0.0) then
    invalid_arg "Stats.scale_table: factor must be finite and > 0";
  match Hashtbl.find_opt t.by_table name with
  | None -> invalid_arg (Printf.sprintf "Stats.scale_table: no table %s" name)
  | Some ts ->
      (* an out-of-range product fails (int_of_float would make it a
         1-row table) before anything is replaced *)
      let scale n =
        let x = float_of_int n *. factor in
        if x >= Float.of_int max_int then
          invalid_arg "Stats.scale_table: scaled count overflows";
        max 1 (int_of_float x)
      in
      Hashtbl.replace t.by_table name
        {
          row_count = scale ts.row_count;
          columns =
            List.map
              (fun (c, cs) -> (c, { cs with distinct = scale cs.distinct }))
              ts.columns;
        }

let table t name = Hashtbl.find_opt t.by_table name

let table_exn t name =
  match table t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Stats: no statistics for %s" name)

let column t name col =
  match table t name with
  | None -> None
  | Some ts -> List.assoc_opt col ts.columns

let row_count t name = (table_exn t name).row_count

let pp fmt t =
  Hashtbl.iter
    (fun name ts ->
      Format.fprintf fmt "%s: %d rows@." name ts.row_count;
      List.iter
        (fun (c, cs) ->
          Format.fprintf fmt "  %s: ndv=%d width=%.1f nulls=%.2f@." c
            cs.distinct cs.avg_width cs.null_fraction)
        ts.columns)
    t.by_table
