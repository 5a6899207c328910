(** Catalog statistics.

    Row counts, per-column distinct counts (NDV), average wire widths and
    null fractions, computed by a full scan — the moral equivalent of
    [ANALYZE].  {!Cost} derives cardinality and cost estimates from these;
    the paper's greedy planner treats the RDBMS as exactly this kind of
    oracle.  The catalog also keeps each table's key and declared
    foreign keys ({!Database.schema}), resolved once to column bitmasks,
    for {!distinct_bound}. *)

type column_stats = {
  distinct : int;  (** number of distinct values, ≥ 1 *)
  avg_width : float;  (** average wire bytes per value *)
  null_fraction : float;
}

type t

val analyze : Database.t -> t
(** Analyzes every table in the catalog. *)

val skew : t -> string -> float -> t
(** A copy with the named table's row count and per-column NDVs
    multiplied by the factor (clamped to >= 1); no function writes a
    catalog once {!analyze} returns it.  Diagnostics fixture — a stale
    catalog for the {!Obs.Diagnose} detector to flag — and the server's
    catalog change.  Raises [Invalid_argument] on an unknown table, a
    factor that is not finite and positive, or a scaled figure past the
    [int] range. *)

(** {1 Lookup}

    A table is resolved to its id once (per scan, in {!Cost}), and its
    columns are read by stored position. *)

type table_id = private int

val id : t -> string -> table_id
(** Raises [Invalid_argument] for a table the catalog does not hold. *)

val rows : t -> table_id -> int
val column_at : t -> table_id -> int -> column_stats option
(** By stored-column position; [None] past the table's arity. *)

val distinct_bound : t -> table_id -> int -> float
(** [distinct_bound t id mask] bounds the number of distinct value
    combinations of the columns in [mask] (bit [i] = stored column [i])
    that one row of the table carries: the table's row count when
    [mask] covers its key, the referenced table's row count when it is
    exactly a declared foreign key's columns (the least such bound),
    [infinity] otherwise.  Skewed counts ({!skew}) skew the bound. *)
