(** SQL generation (paper Sec. 3.4).

    Each partition fragment becomes one SQL query producing one sorted
    tuple stream.  Two strategies: outer-join plans (SilkRoute's
    default — fragment root left-outer-joined with the UNION ALL of its
    child branches) and outer-union plans (one SELECT per node group,
    NULL-padded and unioned; no outer joins).  With [labels] provided,
    view-tree reduction is applied within each fragment: '1'-labeled kept
    edges produce no branch at all. *)

(** How each output column of a stream is interpreted by the tagger. *)
type col_kind =
  | Level_col of int  (** the Lj Skolem-function-index component *)
  | Var_col of string  (** a Skolem-term variable *)

type style = Outer_join | Outer_union

type options = {
  style : style;
  labels : Xmlkit.Dtd.multiplicity array option;
      (** [Some labels] applies view-tree reduction *)
}

val default_options : options
(** Outer-join, no reduction. *)

(** One SQL query = one sorted tuple stream. *)
type stream = {
  fragment : Partition.fragment;
  groups : Reduce.group list;  (** reduced groups (singletons if no labels) *)
  query : Relational.Sql.query;
  cols : col_kind array;  (** aligned with the query's output columns *)
}

val sfi_component : int list -> int -> int
(** [sfi_component sfi j] is the [j]-th (1-based) component of a Skolem
    function's index vector; raises [Invalid_argument] naming the Skolem
    function and level when [j] is out of range. *)

val stream_of_fragment :
  Relational.Database.t -> View_tree.t -> options -> Partition.fragment -> stream

val streams :
  Relational.Database.t -> View_tree.t -> Partition.t -> options -> stream list
(** One stream per fragment of the plan, in document order of fragment
    roots.  Raises {!View_tree.Unsupported} for views whose join
    variables do not flow through intermediate blocks (see DESIGN.md). *)
