(** The middleware pipeline (paper Fig. 7): RXL view → view tree →
    partition → SQL texts → RDBMS → sorted tuple streams → merge/tag →
    XML.

    Execution goes through the production path end to end: the generated
    SQL is printed to text and shipped to a {!Relational.Backend}, the
    one place SQL text becomes a physical plan, and timed; the result
    reports wall-clock query time, deterministic work units, and the
    modeled client-transfer time, mirroring the paper's Query-time /
    Total-time split.

    Every step is one stage of {!Obs.Stage}, bounded by
    {!Obs.Span.with_stage}: [rxl_parser] and [view_tree]
    ({!prepare_text}), [planner] ({!partition_of}, {!estimated_cost}),
    [sql_gen] and, per stream, [sql_print] here and [sql_parser] and
    [physical] in {!Relational.Backend.plan} ({!plan_streams}, under
    one [middleware.plan] span), [executor] in
    {!Relational.Backend.execute_plan} ({!run}, under
    [middleware.execute]), and [tagger] ({!document_of},
    {!xml_string_of}, {!stream_to_channel}).  Every stage up to
    [physical] reads the view and the database alone (paper Sec. 3.4):
    the connection — its faults, retries, work budget and cost profile
    — is an argument of {!run} only, so one {!planned} value runs on
    any connection to its database. *)

type prepared = {
  db : Relational.Database.t;
  view : Rxl.view;
  tree : View_tree.t;
  labels : Xmlkit.Dtd.multiplicity array;
  stats : Relational.Stats.t Lazy.t;
      (** the catalog every estimate of this view is priced against;
          forced only when estimates are needed (greedy planning,
          admission, explain, diagnose); {!plan_streams} and {!run}
          never force it, traced or not *)
}

val prepare : Relational.Database.t -> Rxl.view -> prepared
(** The [view_tree] stage: view tree and edge labels. *)

val prepare_text : Relational.Database.t -> string -> prepared
(** The [rxl_parser] stage, then {!prepare}. *)

val null_free : prepared -> bool
(** Whether no variable of the view reads a column the schema declares
    nullable.  On a database that meets its declared keys, foreign keys
    and inclusion dependencies, every plan of such a view — every
    partition, reduced or not — is held to publish the same bytes (the
    lattice tests check every plan against one reference); NULL is where
    plans are known to part ways (a [where] equality the view tree
    folds into one variable is matched NULL-safe by one plan and with
    SQL's [=] by another). *)

(** How to choose the partition. *)
type strategy =
  | Unified  (** one SQL query (all edges kept) *)
  | Fully_partitioned  (** one SQL query per view-tree node *)
  | Edges of int  (** explicit edge mask *)
  | Greedy  (** the paper's plan-generation algorithm, {!gen_plan} *)

val strategy_of_string : string -> strategy
(** [unified], [partitioned] (or [fully-partitioned]), [greedy] or
    [edges:MASK] with a non-negative integer [MASK], case insensitive.
    Raises [Invalid_argument] for anything else. *)

val strategy_name : strategy -> string
(** The canonical spelling {!strategy_of_string} reads back. *)

val gen_plan : prepared -> reduce:bool -> Planner.result
(** genPlan with {!Planner.default_params}, priced by a fresh cost
    oracle over [p.stats] (the only place a catalog becomes an oracle)
    for fragment queries generated with [reduce]. *)

val partition_of : ?reduce:bool -> prepared -> strategy -> Partition.t
(** The [planner] stage, the one place a strategy becomes a partition.
    [Greedy] is the best plan of {!gen_plan}: pass the [reduce] the plan
    will run with (default [false], as for {!execute}). *)

(** Per-stream breakdown: every sub-query of a partition gets its own
    stats record, so callers can see where inside a plan the work went
    rather than only the sum.  Rows, bytes and modeled transfer are the
    backend's counts of the winning attempt ({!Relational.Backend.run}). *)
type stream_exec = {
  se_stream : Sql_gen.stream;
  se_origin : int;
      (** the plan-order index (from 0) of the top-level stream it ran
          for: its own, or the one a degraded stream was split from *)
  se_cursor : unit -> Relational.Cursor.t;
      (** opens the stream's sorted rows: a heap result opens a fresh
          cursor on every call; a spooled result always hands back its
          one single-use spool cursor *)
  se_sql : string;  (** the SQL text shipped to the engine *)
  se_plan : Relational.Physical.plan;  (** the plan the backend ran *)
  se_stats : Relational.Executor.stats;
      (** the winning attempt's meter, with its per-node actuals and the
          subtrees it replayed from another stream's run *)
  se_profile : Relational.Executor.profile;  (** what it was priced with *)
  se_wall_ms : float;
  se_rows : int;
  se_bytes : int;
  se_transfer_ms : float;
}

type execution = {
  per_stream : stream_exec list;
      (** one entry per executed sub-query, ordered by fragment root
          (plan order) *)
  query_wall_ms : float;  (** measured engine time *)
  transfer_ms : float;  (** modeled client-transfer time *)
  work : int;  (** deterministic engine work units — sum over [per_stream] *)
  tuples : int;
  bytes : int;
  resilience : Relational.Backend.stats;
      (** what resilience cost: the counters of the per-stream forked
          backends ({!Relational.Backend.fork}), summed; submits include
          degraded re-runs.  Zero faults, retries and timeouts on a
          fault-free run that needed no degradation; deterministic for a
          fixed fault seed, and identical at every domain count. *)
  degraded : int;  (** streams split into finer fragments *)
}

val resilience_summary : execution -> string
(** [resilience] and [degraded] in one line: submits, attempts, retries,
    faults, timeouts, degraded streams, backoff ms and wasted work — what
    the CLI's resilience line and the diagnostics report print. *)

(** Which sub-query exceeded the budget, and where it sat in the plan. *)
type timeout_info = {
  timeout_sql : string;  (** the offending SQL text *)
  timeout_stream : int;
      (** the stream's number in plan order, from 1, as {!explain}
          numbers it *)
  timeout_root : string;  (** fragment root's Skolem-function name *)
  timeout_elapsed_ms : float;  (** wall time spent before the budget hit *)
}

exception Plan_timeout of timeout_info
(** A sub-query exceeded the work budget (the paper's 5-minute
    per-query timeout) and nothing finer was left to try.  Its printer
    names the stream, the root and the elapsed ms.  The enclosing
    [execute.stream] span also gets
    [timeout]/[timeout.stream]/[timeout.root]/[timeout.elapsed_ms]
    attributes, and the [middleware.plan_timeout] event
    [stream]/[root]/[elapsed_ms], so traces show which sub-query blew
    the budget; every one of them numbers the stream as
    [timeout_stream] does. *)

type planned
(** A partition's streams, each generated, printed and planned once:
    its {!Sql_gen.stream}, its SQL text and its physical plan, with the
    prepared view and the generation options they were planned with.
    It holds no connection.  Nothing writes to it after {!plan_streams}
    builds it, so it may be priced and run any number of times, on any
    connection to the view's database. *)

val plan_streams :
  ?style:Sql_gen.style -> ?reduce:bool -> prepared -> Partition.t -> planned
(** Inside one [middleware.plan] span (attribute [streams]): the
    [sql_gen] stage, then per stream the [sql_print] stage and
    {!Relational.Backend.plan} against [p.db], the one place SQL text
    becomes a physical plan.  Never forces [p.stats]. *)

val estimated_cost : planned -> float
(** A [planner] stage: the estimated [eval_cost] of every planned plan
    ({!Relational.Cost.annotate} against [p.stats], with
    {!Relational.Executor.default_profile}), summed — the server's
    admission estimate, priced on the plans {!run} runs. *)

val run :
  ?backend:Relational.Backend.t ->
  ?max_splits:int ->
  ?spool:bool ->
  ?pool:Relational.Domain_pool.t ->
  planned ->
  execution
(** Runs the planned streams, in a [middleware.execute] span: each plan
    is submitted to a per-stream {!Relational.Backend.fork} of
    [backend], a connection to the planned view's database (default: a
    fault-free one with no work budget and the default profile).
    [backend] is the config/seed template — work budget, cost profile,
    fault injection, retry policy; its own counters never move, so one
    [backend] and one {!planned} may be run together any number of
    times with the same outcome.

    The plans share one {!Relational.Share} store for this run: a join
    subtree that occurs in several streams' plans runs once, and its
    other occurrences replay its output and its charges.  Every stream's
    rows, counters and per-node rows, cost and spills — hence work,
    timeouts, wasted work and the XML — are those of the stream run
    alone; only its times change, and a replayed node's time is unknown
    ([se_stats.replayed] names it and the stream that ran it).  Nothing
    is shared across runs.  With tracing, the [middleware.execute] span
    carries [shared.subtrees] (the repeated subtrees counted), [shared]
    (the replays) and [shared.work] (the work they replayed).

    The backend drains each stream's winning attempt inside its retry
    scope, into the heap ([spool = false], the default: results may be
    tagged any number of times) or into a temporary spool file
    ([spool = true]: live heap memory from here through tagging is
    bounded by the view-tree depth plus one tuple per stream; the
    result is single-use — exactly one of {!document_of},
    {!xml_string_of} or {!stream_to_channel} may consume it).

    A persistent stream failure — retries exhausted, a fatal fault, or
    a work-budget timeout — degrades only the offending stream by
    splitting its fragment along view-tree edges, at most [max_splits]
    (default 0) nested splits per original stream, and running the
    finer sub-queries, planned there, on the stream's fork.  The
    effective plan is still a point in the 2^|E| lattice, so the XML is
    byte-identical to a fault-free run.
    When nothing finer may be tried, a timeout raises {!Plan_timeout}
    and any other failure re-raises the backend error.

    Every top-level stream is one task on [pool] (default
    {!Relational.Domain_pool.inline}: each task runs on the calling
    thread as it is submitted, no domain is spawned).  The caller owns
    the pool; a pool of N worker domains runs up to N streams at once.
    All tasks are awaited in plan order.  If any failed, the rows of
    the completed streams are closed and the earliest failure in plan
    order is re-raised — after every stream has run, at any pool size.
    Output, deterministic accounting (work, tuples, bytes, modeled
    transfer) and the resilience counters are identical at every pool
    size. *)

val execute :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?backend:Relational.Backend.t ->
  ?max_splits:int ->
  ?spool:bool ->
  ?pool:Relational.Domain_pool.t ->
  prepared ->
  Partition.t ->
  execution
(** [run ?backend ?max_splits ?spool ?pool (plan_streams ?style ?reduce p
    plan)]: plan, then run on [backend]. *)

val cursors : execution -> (Sql_gen.stream * Relational.Cursor.t) list
(** Opens every stream's rows (see [se_cursor]), in plan order — the
    input of {!Tagger.tag_cursors}. *)

val document_of : prepared -> execution -> Xmlkit.Xml.t
val xml_string_of : prepared -> execution -> string

val stream_to_channel : prepared -> execution -> out_channel -> unit
(** Tag and serialize straight to a channel; the document is never held
    in memory. *)

val explain :
  ?style:Sql_gen.style -> ?reduce:bool -> prepared -> Partition.t -> string
(** Per stream of {!plan_streams}: the shipped SQL, then the rewritten
    logical algebra tree and the physical plan — what {!run} runs —
    with estimates (priced with the default profile) and no actuals.
    Nothing is executed. *)

val explain_execution : prepared -> execution -> string
(** Like {!explain} but over a finished {!execution}: the plans that
    ran, every operator with estimated {e and} actual rows/work; the
    root of a replayed subtree ends its figures with [shared from
    stream N], the stream whose run it replayed.
    Estimates are priced on demand with the profile each stream ran
    under.  Writes nothing; does not touch the rows. *)

val diagnose_samples : prepared -> execution -> Obs.Diagnose.sample list
(** Per-operator estimated-vs-actual records for every stream's
    executed plan, labelled by fragment root — input for
    {!Obs.Diagnose}.  Estimates are priced on demand as for
    {!explain_execution}, so they are the same whether or not tracing
    was on and whatever ran before.  Does not touch the rows. *)

val diagnose_report : prepared -> execution -> string
(** {!Obs.Diagnose.report} over {!diagnose_samples}, its RESILIENCE
    line this execution's {!resilience_summary}. *)

val materialize_naive : prepared -> Xmlkit.Xml.t
(** Ground truth: materializes the view via naive datalog evaluation of
    every node rule, bypassing SQL generation.  Tests validate every
    plan's output against this. *)
