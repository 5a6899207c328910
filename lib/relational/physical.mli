(** Physical query plans.

    A {!plan} is the tree the executor actually runs and the tree
    {!Cost} prices: join algorithms (hash vs nested loop) are chosen
    explicitly from the ON condition's per-disjunct equi-key analysis,
    join order is already fixed by the lowering/rewrite layers, and
    every node carries mutable estimated (filled by [Cost.annotate]) and
    actual (filled by the executor) row/cost figures, surfaced through
    [plan.physical] obs spans and [--explain]. *)

type algo = Hash_join | Nested_loop

type index = {
  left_keys : int array;  (** key positions in the left row *)
  right_keys : int array;  (** key positions in the right row *)
  guard : Expr.resolved option;
      (** over the right row: the OR, over the ON disjuncts this index
          serves, of the AND of each one's right-only conjuncts; [None]
          when one of them has none.  Every right row that ON accepts
          through these disjuncts passes it. *)
  index_str : string;  (** [index (keys) guard g], for [--explain] *)
}
(** A hash index on the right input, shared by the ON disjuncts with
    the same (left key, right key) positions. *)

type join_info = {
  kind : Sql.join_kind;
  algo : algo;
      (** [Hash_join] iff every ON disjunct has at least one cross-side
          column equality; otherwise some disjunct forces the whole
          right side to be probed. *)
  on : Expr.resolved;
  on_str : string;
  disjuncts : (int array * int array) list;
      (** per ON disjunct: (left key positions, right key positions);
          empty arrays mean that disjunct needs a full scan of the
          right input; what {!Cost} prices *)
  indexes : index list;
      (** one per distinct key pair of [disjuncts], in order of first
          appearance; empty for [Nested_loop] *)
  split : int;
      (** arity of the left input: ON's positions below it read the left
          row, the rest the right row *)
  right_width : int;  (** arity of the NULL pad for outer joins *)
  from_where : bool;
}

type node = {
  id : int;
  mutable est_rows : float;  (** negative until [Cost.annotate] runs *)
  mutable est_cost : float;
  mutable act_rows : int;  (** negative until executed *)
  mutable act_cost : int;
  shape : shape;
}

and shape =
  | Scan of {
      table : string;
      alias : string;
      cols : int array;  (** stored-column indices to project *)
      col_names : string array;
    }
  | Dual
  | Filter of {
      input : node;
      pred : Expr.resolved;
      pred_str : string;
      pushed : bool;
      charged : bool;
    }
  | Project of {
      input : node;
      items : Expr.resolved array;
      names : string array;
      charged : bool array;
          (** emission accounting mask: positions holding statically
              literal values (NULL padding, level constants) in the
              query's output region are not charged for their bytes —
              the fig. 13 narrow-emission win *)
    }
  | Join of { left : node; right : node; info : join_info }
  | Union of node list
  | Sort of {
      input : node;
      keys : (Expr.resolved * Sql.dir) list;
      key_str : string;
      mutable est_spills : int;  (** negative until annotated *)
      mutable act_spills : int;
    }
  | Derived of { input : node; alias : string }

type plan = { root : node; cols : string array }

val of_algebra : Algebra.t -> plan

val plan_of : Database.t -> Sql.query -> plan
(** [of_algebra (Algebra.rewrite (Algebra.lower db q))]. *)

val algo_name : algo -> string
val op_name : node -> string

val iter : (node -> unit) -> plan -> unit
(** Pre-order traversal. *)

val to_string : plan -> string
(** Indented physical tree with algorithm, estimated and actual
    rows/cost per operator, and each hash join's indexes on the lines
    under it, for [--explain]. *)

val emit_obs_spans : plan -> unit
(** One [plan.physical] span per operator (op, algorithm, estimated vs
    actual rows and cost); no-op when tracing is off. *)

val diagnose_samples : stream:string -> plan -> Obs.Diagnose.sample list
(** Flattens the plan (pre-order) into the generic per-operator records
    the {!Obs.Diagnose} anomaly detector consumes; [stream] labels every
    sample.  Estimates/actuals are whatever [Cost.annotate] and the
    executor left on the nodes (negative when missing). *)
