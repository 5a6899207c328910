(** Cost / cardinality estimation — the planner's oracle.

    System-R style estimates over {!Stats} (equality selectivity
    [1/max(ndv)], range selectivity [1/3]), computed by walking the
    {!Physical.plan} the engine actually runs: the same operator tree,
    join algorithms and narrow-emission masks.  Joins read the source
    description: each ON disjunct's cross-side equalities are priced
    together as one key, [1/max(ndv_L, ndv_R)], where a side's ndv is
    the product of its key columns' NDVs, capped by that side's
    cardinality and, per base table the columns come from, by the
    table's row count when they cover its key or by the referenced
    table's when they are a declared foreign key
    ({!Stats.distinct_bound}).  A union on the right is priced branch
    by branch.  Other conjuncts are independent.  [eval_cost] mirrors
    the executor's work meter operator for operator; [data_size] is
    estimated width × cardinality.  The paper's greedy planner uses
    exactly this interface: "The RDBMS serves as an oracle, providing
    the values for the functions evaluation_cost and cardinality"
    (Sec. 5). *)

type estimate = {
  cardinality : float;
  eval_cost : float;  (** abstract work units, comparable to {!Executor.stats} work *)
  width : float;  (** average output tuple wire bytes *)
}

val data_size : estimate -> float
(** [cardinality ×. width]. *)

val cost : a:float -> b:float -> estimate -> float
(** The paper's linear combination [a·eval_cost + b·data_size]. *)

val annotate :
  ?profile:Executor.profile ->
  Stats.t ->
  Physical.plan ->
  estimate * Physical.estimates
(** Prices a physical plan: the total, and every node's estimated rows
    and cost (and sorts' spills) — the per-operator deltas the executor
    records as {!Physical.actuals}.  Writes nothing into the plan. *)

val estimate :
  ?profile:Executor.profile -> Stats.t -> Database.t -> Sql.query -> estimate
(** The total of {!annotate} on [Physical.plan_of db q], no per-node array. *)

(** {1 Counting oracle}

    Sec. 5.1 of the paper reports the number of cost-estimate requests the
    greedy planner issues (22 non-reduced, 25 reduced, vs. 81 worst case);
    the wrapper below counts them. *)

type oracle

val oracle : Database.t -> oracle
(** Analyzes the database and wraps it as a counting oracle. *)

val oracle_with_stats : Database.t -> Stats.t -> oracle
val ask : ?profile:Executor.profile -> oracle -> Sql.query -> estimate
val requests : oracle -> int
val reset_requests : oracle -> unit
