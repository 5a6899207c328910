(** Physical query plans.

    A {!plan} is the tree the executor actually runs and the tree
    {!Cost} prices: join algorithms (hash vs nested loop) are chosen
    explicitly from the ON condition's per-disjunct equi-key analysis,
    and join order is already fixed by the lowering/rewrite layers.
    Nothing writes a plan after it is built, so one plan can run any
    number of times, on any domain.  Its figures live beside it, in
    per-run arrays indexed by node id: {!estimates} (from
    [Cost.annotate]) and {!actuals} (from one run of the executor),
    set side by side by [--explain] and [diagnose].  A run's live
    [exec.*] spans carry the node id and its actuals; pricing a plan is
    left to those readouts, so tracing never reads the catalog.

    A plan holds only what the executor runs and {!Cost} prices: no
    printed form of any expression and not the logical tree it was built
    from.  {!to_string} names columns from each operator's header, and
    [explain] rebuilds the logical tree from the statement text when it
    prints it. *)

type algo = Hash_join | Nested_loop

type index = {
  left_keys : int array;  (** key positions in the left row *)
  right_keys : int array;  (** key positions in the right row *)
  guard : Expr.resolved option;
      (** over the right row: the OR, over the ON disjuncts this index
          serves, of the AND of each one's right-only conjuncts; [None]
          when one of them has none.  Every right row that ON accepts
          through these disjuncts passes it. *)
}
(** A hash index on the right input, shared by the ON disjuncts with
    the same (left key, right key) positions. *)

type disjunct = {
  d_left_keys : int array;  (** its cross-side equalities' left positions *)
  d_right_keys : int array;  (** their right positions, pairwise *)
  d_rest : Expr.resolved list;
      (** its other conjuncts, over the joined row *)
}
(** One ON disjunct, split once here: the join keys it probes by and
    what it tests beside them.  Empty keys mean it needs the whole
    right input. *)

type join_info = {
  kind : Sql.join_kind;
  algo : algo;
      (** [Hash_join] iff every ON disjunct has at least one cross-side
          column equality; otherwise some disjunct forces the whole
          right side to be probed. *)
  on : Expr.resolved;
  disjuncts : disjunct list;  (** ON's disjuncts; what {!Cost} prices *)
  indexes : index list;
      (** one per distinct key pair of [disjuncts], in order of first
          appearance; empty for [Nested_loop] *)
  split : int;
      (** arity of the left input: ON's positions below it read the left
          row, the rest the right row *)
  right_width : int;  (** arity of the NULL pad for outer joins *)
  from_where : bool;
}

type node = { id : int;  (** 1 .. [nodes] of its plan *) shape : shape }

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
    }
  | Derived of { input : node; alias : string }

type plan = {
  root : node;
  cols : string array;
  nodes : int;  (** the node count *)
}

val plan_of : Database.t -> Sql.query -> plan
(** Plans [Algebra.rewrite (Algebra.lower db q)]. *)

(** {1 Figures}

    One run's figures: an array slot per node id (slot 0 unused),
    negative where unknown — never priced, or never executed. *)

type 'a figures = {
  rows : 'a array;
  cost : 'a array;
      (** the node's own work; unions and derived tables charge none *)
  spills : int array;  (** sorts' external merge passes *)
  ns : 'a array;
      (** the node's own time in ns: predicted by [Cost.annotate],
          measured by the executor.  A projection over a join is built
          inside the join's probe, so the join's time includes building
          the projection's rows and the projection's own time is 0. *)
}

type estimates = float figures
type actuals = int figures

val no_estimates : plan -> estimates
val no_actuals : plan -> actuals
(** All unknown, but actual spills are 0 until a sort runs. *)

val op_name : node -> string

val inputs : node -> node list
(** The operators a node reads, left to right. *)

val iter : (node -> unit) -> plan -> unit
(** Pre-order traversal. *)

val iter_node : (node -> unit) -> node -> unit
(** Pre-order traversal of the subtree at a node. *)

type key
(** A subtree as it runs: node ids, aliases and printed names taken
    out.  Compare keys with structural equality and hash them with
    [Hashtbl.hash]. *)

val keys : plan -> key array
(** The key of each node's subtree, by node id (slot 0 unused): two
    subtrees, of one plan or of two, have equal keys exactly when they
    read the same tables and run the same operators with the same
    expressions, so they produce the same rows for the same charges. *)

val to_string :
  ?shared:(int -> string option) -> plan -> estimates -> actuals -> string
(** Indented physical tree with algorithm, estimated and actual
    rows/cost/ms per operator, and each hash join's indexes on the lines
    under it, for [--explain].  Expressions are named from the headers
    of the operators they read, as {!Algebra.to_string} names them.  A
    node for which [shared] (by node id; default none) names where its
    run came from ends its figures with [shared from NAME]. *)

val diagnose_samples :
  ?shared:(int -> string option) ->
  stream:string ->
  plan ->
  estimates ->
  actuals ->
  Obs.Diagnose.sample list
(** Flattens the plan (pre-order) into the generic per-operator records
    the {!Obs.Diagnose} anomaly detector consumes; [stream] labels every
    sample, and [shared] gives a replayed node's {!Obs.Diagnose.sample}
    [d_shared]. *)
