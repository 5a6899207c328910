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
    the executor's work meter operator for operator.  The same walk prices each node's
    {!counts} in predicted nanoseconds under {!time_model}, and the
    planner compares fragments in that time ({!time_cost}); work units
    stay the executor's meter.  The paper's greedy planner uses
    exactly this interface: "The RDBMS serves as an oracle, providing
    the values for the functions evaluation_cost and cardinality"
    (Sec. 5). *)

type estimate = {
  cardinality : float;
  eval_cost : float;  (** abstract work units, comparable to {!Executor.stats} work *)
  width : float;  (** average output tuple wire bytes *)
  ms : float;
      (** predicted executor time: the nodes' predicted own times and
          the per-stream constant *)
}

(** {1 The time model} *)

type counts = {
  scanned : float;  (** rows read from a stored table *)
  built : float;  (** right rows indexed by a join, once per hash index *)
  probed : float;  (** join candidates, as the meter charges them *)
  tested : float;
      (** predicate evaluations: ON on a probe slice, a filter's input *)
  emitted : float;  (** rows a filter, projection or join produces *)
  bytes : float;  (** their wire bytes, as the meter charges them *)
  sorted : float;  (** rows through a sort *)
}
(** What one operator does, in the units its time goes by. *)

val no_counts : counts
(** All zero: an operator that does no work of its own. *)

type time_model = {
  scan_row : float;
  build_row : float;
  probe : float;
  test : float;
  emit_row : float;
  emit_byte : float;
  sort_row : float;
  stream : float;  (** per stream: SQL print, parse, planning, draining *)
  tag_tuple : float;  (** per tuple the merge-tagger reads *)
  tag_byte : float;  (** per byte of those tuples *)
}
(** Nanoseconds per unit of each {!counts} field, and per stream and
    tagged tuple and byte. *)

val time_model : time_model
(** The committed weights, fitted by least squares to measured
    per-operator and tagger times ([bench --experiment
    lattice-wallclock] prints the fit). *)

val time_cost : a:float -> b:float -> estimate -> float
(** The paper's combination in predicted milliseconds: [a] times the
    engine's [ms] plus [b] times the merge-tagger's predicted time for
    the estimate's rows — what greedy genPlan compares. *)

val annotate :
  ?profile:Executor.profile ->
  Stats.t ->
  Physical.plan ->
  estimate * Physical.estimates
(** Prices a physical plan: the total, and every node's estimated rows,
    cost and time (and sorts' spills) — the per-operator deltas the
    executor records as {!Physical.actuals}.  Writes nothing into the
    plan. *)

val counts :
  ?profile:Executor.profile -> Stats.t -> Physical.plan -> counts array
(** Every node's estimated {!counts}, by node id, from the walk
    {!annotate} makes — what the time model is fitted on. *)

(** {1 Counting oracle}

    Sec. 5.1 of the paper reports the number of cost-estimate requests the
    greedy planner issues (22 non-reduced, 25 reduced, vs. 81 worst case);
    the wrapper below counts them. *)

type oracle

val oracle_with_stats : Database.t -> Stats.t -> oracle
(** Wraps the database and its analysis as a counting oracle. *)

val ask : ?profile:Executor.profile -> oracle -> Sql.query -> estimate
(** One counted request: the total of {!annotate} on
    [Physical.plan_of db q], no per-node array. *)

val requests : oracle -> int
