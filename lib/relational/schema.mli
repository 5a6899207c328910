(** Relation schemas and integrity constraints.

    The constraint metadata (keys, foreign keys, declared inclusion
    dependencies) is the paper's "source description": SilkRoute reads it
    to label view-tree edges with multiplicities and to decide which edges
    are reducible (Sec. 3.5 of the paper). *)

type column = {
  col_name : string;
  col_ty : Value.ty;
  nullable : bool;
}

type foreign_key = {
  fk_cols : string list;  (** referencing columns, in order *)
  ref_table : string;
  ref_cols : string list;  (** referenced columns (a key), in order *)
}

(** A declared inclusion dependency [inc_table\[inc_cols\] ⊆
    inc_ref_table\[inc_ref_cols\]].  Foreign keys give the
    child-to-parent direction implicitly; explicit inclusions record
    total participation the other way ("every supplier has at least one
    part"), used by the C2 test of the edge labeler. *)
type inclusion = {
  inc_table : string;
  inc_cols : string list;
  inc_ref_table : string;
  inc_ref_cols : string list;
}

type table = {
  name : string;
  columns : column list;
  key : string list;  (** primary-key column names *)
  foreign_keys : foreign_key list;
}

val column : ?nullable:bool -> string -> Value.ty -> column
(** [column name ty] builds a NOT NULL column; pass [~nullable:true] to
    allow NULLs. *)

val table :
  ?foreign_keys:foreign_key list ->
  string ->
  key:string list ->
  column list ->
  table
(** Builds a table schema.  Raises [Invalid_argument] if a key column is
    not among the declared columns. *)

val find_column : table -> string -> column option
val column_index : table -> string -> int option
val column_names : table -> string list
val arity : table -> int
val has_column : table -> string -> bool
