(** Query execution: interprets a {!Physical.plan} (see
    {!Physical.plan_of} for the layers that build one), chunk by chunk,
    with stable multi-key sorting under the total value order.

    Execution is metered in abstract work units.  The meter implements the
    experiment timeout (the paper killed sub-queries after five minutes)
    and provides a deterministic "simulated time" for reproducible
    experiment output.  The physical path charges exactly like the seed
    AST interpreter — which lives outside the engine, as the tests'
    reference, and charges through the meter below — except that
    rewrites may only lower the bill. *)

exception Timeout
(** Raised when the work budget is exhausted. *)

(** A subtree a run took from a {!Share} store instead of running it. *)
type replay = {
  r_node : int;  (** its root, a node of the run's plan *)
  r_owner : int;
      (** the index, in the store, of the plan whose run computed it *)
  r_work : int;  (** the work units the replay charged *)
}

type stats = {
  mutable scanned : int;  (** rows read from stored tables *)
  mutable probed : int;  (** join candidate pairs examined *)
  mutable emitted : int;  (** rows produced by operators *)
  mutable sorted : int;  (** rows passed through sorting *)
  mutable spill_passes : int;  (** external-sort merge passes *)
  mutable work : int;  (** total work units (weighted sum) *)
  actuals : Physical.actuals;
      (** this run's per-node figures: rows, work, spills, and each
          node's own elapsed ns, clocked on every run — except the nodes
          of a replayed subtree, which did not run here: their time is
          unknown (-1) *)
  mutable replayed : replay list;  (** latest first; [[]] without a store *)
}

val new_stats : unit -> stats
(** Zero counters and no per-node actuals: the meter of an interpreter
    that runs no physical plan. *)

val stats_attrs : stats -> Obs.Attr.t
(** The counters as span attributes — what the backend's [executor]
    stage span carries. *)

(** Cost profile of the simulated server: rows are charged by wire width
    and sorts larger than [sort_buffer] bytes pay external merge passes —
    the two effects the paper blames for the unified plans' slowness
    (Sec. 7). *)
type profile = {
  sort_buffer : int;  (** bytes of sort memory before spilling *)
  byte_div : int;  (** bytes per extra work unit on emit/sort/spill *)
}

val default_profile : profile

(** {1 Execution}

    Each run returns its per-node figures in [stats.actuals] and writes
    nothing into the plan, so one plan may run any number of times, at
    once on several domains. *)

type entry
(** A subtree's stored run: its output batches and what it charged. *)

val run_plan_with_stats :
  ?budget:int ->
  ?profile:profile ->
  ?share:entry Share.scope ->
  Database.t ->
  Physical.plan ->
  Relation.t * stats
(** Executes a plan.  [budget > 0] bounds the work units; exceeding it
    raises {!Timeout}.  Operators process {!Batch.t} chunks of
    {!Batch.default_size} rows with expressions compiled once per
    operator; a Sort's output is one batch of all its rows.

    With [share] (a scope counted for this very plan, else
    [Invalid_argument]), the first run of each repeated subtree stores
    its output and its charges in the store, and a run that finds one
    stored replays it instead of running it: it adds the stored
    counters to its own, copies the subtree's per-node rows, cost and
    spills, records a {!replay}, then checks the budget.  Every counter
    and figure but the subtree's times is what running it would give,
    and so is a {!Timeout}. *)

val run_plan_batches_with_stats :
  ?budget:int ->
  ?profile:profile ->
  ?share:entry Share.scope ->
  Database.t ->
  Physical.plan ->
  Batch.t list * stats
(** Like {!run_plan_with_stats}, but hands back the output chunks
    themselves, in order, instead of a copy of their rows: a plan whose
    root is a Sort gives one batch holding all its sorted rows (none if
    it has no row), and any other plan chunks of
    {!Batch.default_size}.  The batches are never written again, so
    they can be read any number of times ({!Cursor.of_batches}).
    Evaluation (and therefore work accounting) is identical. *)

(** {1 Sorting} *)

val sort_rows :
  (Expr.resolved * Sql.dir) list ->
  Tuple.t array ->
  int array ->
  Tuple.t array * int array * int
(** The ORDER BY sort: [sort_rows keys rows bytes] orders [rows] on
    their [keys] under {!Value.compare_total}, reversed for [Desc],
    keeping equal rows in input order, and moves each row's charged
    [bytes] (an array as long as [rows]) with it.  It is a natural merge
    sort: one pass finds the maximal non-descending runs, and adjacent
    runs are merged bottom-up, so sorted input costs one comparison per
    row and is returned as it is, with no copy.  [rows] and [bytes] may
    be overwritten.  Returns the sorted rows and bytes and the number of
    runs found. *)

(** {1 The work meter}

    Exported so that a reference interpreter outside the engine charges
    exactly what the engine would for the same rows. *)

type ctx = { db : Database.t; st : stats; budget : int; profile : profile }
(** One execution's meter: charges accumulate in [st]; past a positive
    [budget] they raise {!Timeout}. *)

val weight : [ `Scan | `Probe | `Emit | `Sort ] -> int
(** The work units one row scanned, probed, emitted or sorted costs —
    what {!Cost} prices its counts at. *)

val charge : ctx -> [ `Scan | `Probe | `Emit | `Sort ] -> int -> unit
(** [n] rows scanned, probed, emitted or sorted, at {!weight} each. *)

val charge_emit_row : ctx -> Tuple.t -> unit
(** One emitted row, plus its wire bytes over [profile.byte_div]. *)

val charge_sort : ctx -> int -> int -> unit
(** Sorting [rows] rows of [bytes] total: n log n per row, plus an
    external merge pass over the bytes per doubling beyond
    [profile.sort_buffer]. *)
