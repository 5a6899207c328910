(** Catalog statistics.

    Row counts, per-column distinct counts (NDV), average wire widths and
    null fractions, computed by a full scan — the moral equivalent of
    [ANALYZE].  {!Cost} derives cardinality and cost estimates from these;
    the paper's greedy planner treats the RDBMS as exactly this kind of
    oracle. *)

type column_stats = {
  distinct : int;  (** number of distinct values, ≥ 1 *)
  avg_width : float;  (** average wire bytes per value *)
  null_fraction : float;
}

type table_stats = {
  row_count : int;
  columns : (string * column_stats) list;
}

type t

val analyze_table : Database.t -> string -> table_stats
val analyze : Database.t -> t
(** Analyzes every table in the catalog. *)

val scale_table : t -> string -> float -> unit
(** Deliberately skews one table's catalog entry in place: row count and
    per-column NDVs are multiplied by the factor (clamped to >= 1).
    Diagnostics fixture — models a stale catalog so the {!Obs.Diagnose}
    detector has a misestimate to flag.  Raises [Invalid_argument] on an
    unknown table, a factor that is not finite and positive, or a scaled
    figure past the [int] range; the entry is then left unchanged. *)

val table : t -> string -> table_stats option
val table_exn : t -> string -> table_stats
val column : t -> string -> string -> column_stats option
val row_count : t -> string -> int
val pp : Format.formatter -> t -> unit
