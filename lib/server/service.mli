(** The long-running query service (ROADMAP "query server + caching
    middleware"): a session scheduler over {!Relational.Domain_pool}
    with admission control and three cache tiers in front of execution.

    {b Tiers}, checked in order for every query:
    - {e statement cache} — RXL source text → prepared view tree
      (parse + label work) and the view's digest that keys the other
      tiers, keyed by the source text itself;
    - {e plan cache} — (view, strategy, reduce, stats epoch) → the
      chosen partition's mask (for [greedy], the costed lattice search
      it saves) and the admission estimate of its planned streams;
    - {e result cache} — (view, data epoch) → the serialized XML
      document, under a byte-weight storage budget
      (materialized-view selection under a storage budget, Mahboubi et
      al.).  Every plan of a view publishes the same document when the
      database meets its declared keys, foreign keys and inclusion
      dependencies (checked once, at {!create}, when the tier is on)
      and no variable of the view reads a nullable column
      ({!Silkroute.Middleware.null_free}); any other view keeps one
      document per (view, partition mask, reduce, data epoch).

    Two epochs key the tiers.  A plan depends on the view and the
    catalog, never on the rows, so plan entries embed the {e stats
    epoch}, which only an invalidation that skews the catalog bumps;
    result entries embed the {e data epoch}, which every {!invalidate}
    bumps.  The statement tier — which depends on neither — survives
    both.

    {b Admission control}: a plan miss plans the partition's streams
    once ({!Silkroute.Middleware.plan_streams}) and prices them
    ({!Silkroute.Middleware.estimated_cost}); a result miss runs those
    same plans ({!Silkroute.Middleware.run}), or plans them once on a
    plan hit, after charging the estimate against a budget of in-flight
    work.  A query that can never fit is rejected outright, before the
    result lookup (its view's document may come from a cheaper plan);
    one that does not fit {e now} waits in a bounded queue and is
    rejected when the queue is full.  Result-cache hits bypass the rest
    of admission — that is the point of the cache — and reply the
    request's own estimate with work 0.

    {b Telemetry}: every query runs in one request scope
    ({!Obs.Span.with_request}) with a trace id, so all spans and events
    it produces — including those from pool worker domains — carry it,
    and a stage clock ({!Obs.Stage}) that every stage boundary feeds.
    [trace_sample] head-samples which requests record spans; events,
    stage times, latency, SLO accounting and the slow-query log are
    never sampled.  The service keeps one latency histogram of every
    query's wall time and one per {!Obs.Stage} folded from each query's
    stage clock, fed with telemetry on or off.  Queries slower than
    [slow_ms] append a structured JSONL record, with one entry per
    stage, through the bounded non-blocking {!Slowlog}.  The [M]/[H]
    protocol requests serve the Prometheus-style exposition (the
    request and per-stage latency summaries
    [silkroute_server_request_ms] and [silkroute_stage_ms{stage="…"}],
    and [silkroute_events_total{level="…"}] among the series) and a
    one-line health summary.

    Cached and uncached paths return byte-identical XML: the result tier
    stores exactly the bytes the uncached path produced, and shares a
    document between plans only where every plan publishes it. *)

type config = {
  domains : int;  (** worker-domain pool size; 1 executes inline *)
  statement_capacity : int;  (** entries *)
  plan_capacity : int;  (** entries *)
  result_capacity : int;  (** bytes of serialized XML *)
  admission_budget : int;
      (** max estimated work units in flight; 0 = unlimited *)
  max_queue : int;  (** waiting admissions beyond which queries are rejected *)
  trace_sample : int;
      (** head sampling: record spans for 1 in N queries.  [1] traces
          every request (the default), [0] none; sampled-out requests
          still produce events, stage times, latency and SLO samples. *)
  slow_ms : float;
      (** queries slower than this log a slow-query record and count in
          [counters.slow]; [0] disables the slow path entirely. *)
  slow_log : string option;
      (** JSONL file receiving slow-query records (requires
          [slow_ms > 0]); [None] keeps the counter and event only. *)
  slo : Obs.Slo.config option;  (** enable rolling SLO accounting *)
  retain_spans : bool;
      (** keep each request's spans in the shared log after serving it.
          The long-running server sets this [false] so the span log
          stays bounded (a sampled request's spans are pruned once it
          has answered); tests keep the default [true] to inspect spans
          after the fact. *)
}

val default_config : config
(** Telemetry defaults preserve the pre-telemetry behavior:
    [trace_sample = 1], [slow_ms = 0.], no slow log, no SLO,
    [retain_spans = true]. *)

(** What admission control decided for one query. *)
type admission = Admit | Queue | Reject of string

val admission_decision :
  config -> est_cost:float -> in_flight:float -> waiting:int -> admission
(** The pure decision function ({!submit} applies it under the
    admission lock): reject when [est_cost] exceeds the whole budget or
    the queue is full, queue while the budget is occupied, admit
    otherwise.  Exposed for tests. *)

type t

val create : ?config:config -> Relational.Database.t -> t
(** Analyzes the database once (the shared catalog all estimates and
    epochs refer to), checks its declared constraints when the result
    tier is on, starts the worker pool, and — when configured — opens
    the slow log and the SLO tracker.  Raises [Invalid_argument]
    on fewer than one domain, a negative [trace_sample] or a negative
    cache capacity. *)

val stats_epoch : t -> int
(** The catalog version: the number of skewing invalidations.  It keys
    the plan tier, and is the [epoch=] of the health line and the
    counter report. *)

val query :
  t -> view:string -> strategy:string -> reduce:bool -> Protocol.reply
(** Runs one query through the tiers + admission + pool, wrapped in its
    trace context (see the module docs).  Thread-safe; blocks while
    queued.  [strategy] is [unified], [partitioned],
    [fully-partitioned], [greedy] or [edges:MASK]. *)

val invalidate : ?skew:string * float -> t -> unit
(** Bumps the data epoch and flushes the result tier; the plan tier
    survives, since no plan reads the rows.  [skew = (table, factor)]
    first scales that table's catalog entry in place, modeling a catalog
    change that makes cached plans stale, then bumps the stats epoch and
    flushes the plan tier, all under the plan lock. *)

val handle : t -> Protocol.request -> Protocol.reply
(** Full protocol dispatcher: {!query} / {!invalidate} / stats report /
    telemetry exposition / health summary / shutdown acknowledgement. *)

(** Scheduler counters (cache-tier counters live in {!tier_stats}). *)
type counters = {
  requests : int;  (** protocol requests handled *)
  queries : int;
  admitted : int;
  queued : int;  (** admitted queries that had to wait *)
  rejected : int;
  failed : int;
  invalidations : int;
  executed_work : int;  (** engine work spent on uncached executions *)
  slow : int;  (** queries that exceeded [slow_ms] *)
}

val counters : t -> counters

val tier_stats : t -> Lru.stats * Lru.stats * Lru.stats
(** (statement, plan, result). *)


val render_stats : t -> string
(** Human-readable counter report (also served over the protocol). *)

val shutdown : t -> unit
(** Drains the worker pool and closes the slow log; later queries fail.
    Idempotent. *)

type listener
(** A bound, listening Unix-domain socket. *)

val listen : socket:string -> listener
(** Binds and listens on a Unix-domain socket at path [socket].  A
    stale socket file there (left by a server that died: nothing accepts
    on it) is replaced; a live socket or any other existing file raises
    [Invalid_argument] and is left untouched.  A failure to bind raises
    [Unix.Unix_error (_, "bind", socket)]. *)

val serve_unix : ?session_threads:bool -> t -> listener -> unit
(** Serves sessions on the listener until a [Shutdown] request arrives;
    each accepted connection gets its own session thread (unless
    [session_threads] is false, for tests).  A reply the client could
    not read — a document above the protocol's field limit — is
    answered with [Failed] naming its size instead, and counted as
    failed.  Removes the socket file on exit and calls {!shutdown}. *)
