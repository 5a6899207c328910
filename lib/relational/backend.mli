(** Connection abstraction over the (simulated) remote RDBMS, and the
    only place SQL text becomes a physical plan.

    The paper treats the backend as a black box reached over JDBC: it
    takes SQL text, plans and runs it, and can reject a submission, drop
    a connection mid-result, or run a sub-query into the 5-minute
    experiment timeout.  This module models that
    failure surface on top of {!Executor} with a deterministic, seeded
    fault injector, and wraps every submission in a retry policy
    (bounded retries, exponential backoff with jitter, transient-vs-fatal
    classification).

    Determinism: all injected faults and jitter draws come from one
    splitmix64 stream seeded by {!fault_config.fault_seed}; the same
    seed and the same submission sequence reproduce the same faults,
    retries and backoff to the bit.  Backoff is modeled time: it is
    summed into {!stats.backoff_ms}, never slept. *)

(** What to inject, and how often.  Probabilities are per physical
    attempt; every draw comes from the seeded stream. *)
type fault_config = {
  fault_rate : float;  (** probability that an attempt is faulted *)
  fault_seed : int;  (** PRNG seed for fault and jitter draws *)
  fatal_weight : float;
      (** P(fault is fatal | fault) — fatal faults are never retried *)
  midstream_weight : float;
      (** P(fault strikes mid-stream | transient fault): the connection
          drops after N delivered rows instead of at submit time *)
}

val faults :
  ?seed:int -> ?fatal_weight:float -> ?midstream_weight:float -> float ->
  fault_config
(** [faults rate] builds a config with the given fault rate; defaults:
    seed 0, fatal weight 0, mid-stream weight 0.3.  Raises
    [Invalid_argument] unless [rate] is in [\[0, 1\]] (NaN is not). *)

(** How an attempt failed.  [Transient] failures (injected submit
    failures and mid-stream connection drops) are retryable; [Fatal]
    faults and work-budget [Timeout]s are not — retrying a deterministic
    timeout cannot help, only a finer plan can. *)
type error_kind = Transient | Fatal | Timeout

val kind_name : error_kind -> string

exception
  Backend_error of {
    kind : error_kind;
    attempt : int;  (** 1-based physical attempt that failed *)
    rows_delivered : int;  (** rows delivered before a mid-stream drop *)
    message : string;
  }

(** Cumulative counters; all deterministic for a fixed seed.
    [wasted_work] is the engine work burned by failed attempts
    (timeouts are accounted at the budget, the work level at which the
    engine gave up). *)
type stats = {
  mutable submits : int;  (** logical submissions ({!execute_plan} calls) *)
  mutable attempts : int;  (** physical attempts, including retries *)
  mutable retries : int;
  mutable faults_transient : int;  (** injected submit-time failures *)
  mutable faults_midstream : int;  (** injected mid-stream drops that fired *)
  mutable faults_fatal : int;
  mutable timeouts : int;  (** work-budget exhaustions *)
  mutable backoff_ms : float;  (** total modeled backoff *)
  mutable wasted_work : int;
}

val total_faults : stats -> int
(** transient + mid-stream + fatal. *)

type t

val create :
  ?faults:fault_config ->
  ?retries:int ->
  ?budget:int ->
  ?profile:Executor.profile ->
  Database.t ->
  t
(** A connection to [db], fault-free unless [faults] says otherwise.
    A transient failure is re-submitted up to [retries] times (default
    3) after a modeled backoff: 10 ms, doubling per retry up to 5 s,
    each jittered by a uniform ±25%.  [budget] (work units per
    submission, 0 = unlimited) and [profile] are applied to every
    submitted query, modeling the server-side per-query timeout.  Raises
    [Invalid_argument] on a negative [budget] or [retries]. *)

val profile : t -> Executor.profile
(** The cost profile every submission runs under (for pricing a plan
    with estimates that match the meter). *)

val stats : t -> stats
(** A snapshot copy (callers may diff two snapshots). *)

val fork : t -> salt:int -> t
(** An independent connection derived from [t] for one stream of a
    fanned-out plan: same database, fault/retry configs and
    budget/profile, but fresh stats and a PRNG seeded by mixing the
    parent's fault seed with [salt].  Fault draws on a fork depend only
    on (seed, salt, the fork's own submission sequence) — not on how
    streams interleave across domains — so a parallel resilient run is
    as deterministic as a sequential one.  Forks never share mutable
    state with the parent or each other; merge their {!stats} with
    {!merge_stats}. *)

val merge_stats : stats list -> stats
(** Field-wise sum — aggregate per-fork counters into one report. *)

val plan : Database.t -> string -> Physical.plan
(** [plan db text]: the [sql_parser] stage, then the [physical] stage.
    Parses [text] ({!Sql_parser.Parse_error} on bad input) and plans it
    against [db] — the plan {!execute} runs for that text on a
    connection to [db].  A plan needs the database alone: it may run on
    any connection to [db] ({!execute_plan}), any number of times.  For
    callers that show a plan without running it, or that plan a
    request's statements before running them. *)

(** One {!execute_plan}: the plan that ran, its rows and its meter, all of
    the winning attempt. *)
type run = {
  plan : Physical.plan;  (** from {!plan}, built once for all attempts *)
  rows : unit -> Cursor.t;
  stats : Executor.stats;  (** counters and per-node actuals *)
  tuples : int;  (** rows delivered *)
  bytes : int;
      (** their {!Tuple.wire_size} sum, added from the sizes the rows
          carry ({!Batch.total_bytes}) *)
  transfer_ms : float;
      (** modeled client transfer: {!Transfer.stream_ms} of [tuples]
          and [bytes] *)
}

val execute : ?label:string -> ?spool:bool -> t -> string -> run
(** Resilient submission of SQL text: {!plan} once against the
    connection's database, then {!execute_plan} on the connection. *)

val execute_plan :
  ?label:string ->
  ?spool:bool ->
  ?share:Executor.entry Share.scope ->
  t ->
  Physical.plan ->
  run
(** Resilient submission of a plan {!plan} built over [t]'s database:
    in the [executor] stage (whose span carries the plan's output rows
    and {!Executor.stats_attrs}), retries transient failures
    (submit faults and mid-stream drops) with exponential backoff up to
    the retry budget, and drains the winning attempt's rows inside the
    retry scope, so what comes back is complete and failure-free.  The
    rows go to the heap ([spool = false], the default: every call of
    the returned function opens a fresh cursor over them) or to a
    temporary file ([spool = true], {!Cursor.spool}: the returned
    function always hands back the same single-use cursor).  Rows of a
    failed attempt are discarded, and so are their counts.  Raises
    {!Backend_error} when retries are exhausted or the failure is not
    retryable ([Fatal], [Timeout]).  Emits [backend.submit] /
    [backend.retry] spans and [backend.fault] / [backend.fatal] /
    [backend.timeout] / [backend.retry] events.  Every attempt runs
    with [share] ({!Executor.run_plan_with_stats}): a retry replays what
    the store still holds, and the stats of a winning attempt are those
    of an attempt run alone. *)
