(** The catalog: stored tables, constraints, declared inclusion
    dependencies.

    This is the state of the "target RDBMS" the middleware submits SQL to,
    plus the "source description" (constraint metadata) the planner reads
    for view-tree labeling and reduction. *)

type t

exception Constraint_violation of string

val create : unit -> t

val add_table : t -> Schema.table -> unit
(** Registers an empty table.  Raises [Invalid_argument] if the name is
    taken. *)

val declare_inclusion : t -> Schema.inclusion -> unit
(** Declares a total-participation inclusion dependency (see
    {!Schema.inclusion}). *)

val inclusions : t -> Schema.inclusion list

val schema : t -> string -> Schema.table
(** Raises [Invalid_argument] for an unknown table. *)

val mem : t -> string -> bool
val table_names : t -> string list

val insert : t -> string -> Tuple.t list -> unit
(** Appends rows after type checking each against the schema.  Raises
    {!Constraint_violation} on NULL-in-NOT-NULL or type mismatch. *)

val load : t -> string -> Tuple.t list -> unit
(** Replaces the table contents (same checks as {!insert}). *)

val row_count : t -> string -> int

val raw_data : t -> string -> Tuple.t array
(** Zero-copy view of the stored tuples; callers must not mutate. *)

val check_inclusion : t -> Schema.inclusion -> bool
(** Whether the inclusion dependency actually holds on the instance. *)

val check_integrity : t -> string list
(** All primary-key and dangling foreign-key violations across the
    catalog, as human-readable messages (empty = ok); a NULL foreign key
    is no violation. *)

val total_rows : t -> int
val total_bytes : t -> int
(** Wire-size of the whole instance; reported as the "database size" of
    an experimental configuration (paper's Table 1). *)
