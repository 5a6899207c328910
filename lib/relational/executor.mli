(** Query execution.

    Queries run through three layers: {!Algebra.lower} (name resolution
    and greedy connected-join ordering, done once), {!Algebra.rewrite}
    (predicate pushdown, constant folding, projection pruning), and
    {!Physical.plan_of} (explicit hash-join vs nested-loop choice from
    the ON disjuncts' equi-keys, with OR-expansion for the disjunctive
    ON conditions produced by unified outer-join plans).  This module
    interprets the resulting physical plan, chunk by chunk, with stable
    multi-key sorting under the total value order.

    Execution is metered in abstract work units.  The meter implements the
    experiment timeout (the paper killed sub-queries after five minutes)
    and provides a deterministic "simulated time" for reproducible
    experiment output.  The physical path charges exactly like the seed
    interpreter — kept below as the [run_legacy] entry points — except
    that rewrites may only lower the bill. *)

exception Timeout
(** Raised when the work budget is exhausted. *)

exception Ambiguous_column of string
(** An unqualified column name matched several positions. *)

type stats = {
  mutable scanned : int;  (** rows read from stored tables *)
  mutable probed : int;  (** join candidate pairs examined *)
  mutable emitted : int;  (** rows produced by operators *)
  mutable sorted : int;  (** rows passed through sorting *)
  mutable spill_passes : int;  (** external-sort merge passes *)
  mutable work : int;  (** total work units (weighted sum) *)
}

val new_stats : unit -> stats

(** Cost profile of the simulated server: rows are charged by wire width
    and sorts larger than [sort_buffer] bytes pay external merge passes —
    the two effects the paper blames for the unified plans' slowness
    (Sec. 7). *)
type profile = {
  sort_buffer : int;  (** bytes of sort memory before spilling *)
  byte_div : int;  (** bytes per extra work unit on emit/sort/spill *)
}

val default_profile : profile

val run :
  ?budget:int ->
  ?profile:profile ->
  Database.t ->
  Sql.query ->
  Relation.t
(** Executes a query.  [budget > 0] bounds the work units; exceeding it
    raises {!Timeout}.  Operators process {!Batch.t} chunks of
    {!Batch.default_size} rows with expressions compiled once per
    operator. *)

val run_with_stats :
  ?budget:int ->
  ?profile:profile ->
  Database.t ->
  Sql.query ->
  Relation.t * stats

(** {1 Pre-planned execution}

    For callers that build the {!Physical.plan} themselves (to annotate
    it with cost estimates or print it): execution fills each node's
    [act_rows]/[act_cost] fields. *)

val run_plan :
  ?budget:int ->
  ?profile:profile ->
  Database.t ->
  Physical.plan ->
  Relation.t

val run_plan_with_stats :
  ?budget:int ->
  ?profile:profile ->
  Database.t ->
  Physical.plan ->
  Relation.t * stats

val run_plan_cursor_with_stats :
  ?budget:int ->
  ?profile:profile ->
  Database.t ->
  Physical.plan ->
  Cursor.t * stats
(** Like {!run_plan_with_stats}, but hands back the sorted output as a
    pull cursor over the output chunks instead of a materialized
    {!Relation.t}.  Evaluation (and therefore work accounting) is
    identical. *)

(** {1 Legacy interpreter}

    The seed executor, interpreting the SQL AST directly.  Kept solely as
    the reference for the differential safety-net tests; new code should
    use the plan-based entry points above. *)

val run_legacy :
  ?budget:int -> ?profile:profile -> Database.t -> Sql.query -> Relation.t

val run_legacy_with_stats :
  ?budget:int -> ?profile:profile -> Database.t -> Sql.query -> Relation.t * stats
