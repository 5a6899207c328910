(** The middleware pipeline (paper Fig. 7): RXL view → view tree →
    partition → SQL texts → RDBMS → sorted tuple streams → merge/tag →
    XML.

    Execution goes through the production path end to end: the generated
    SQL is printed to text, re-parsed by the engine, executed, and timed;
    the result reports wall-clock query time, deterministic work units,
    and the modeled client-transfer time, mirroring the paper's
    Query-time / Total-time split. *)

type prepared = {
  db : Relational.Database.t;
  view : Rxl.view;
  tree : View_tree.t;
  labels : Xmlkit.Dtd.multiplicity array;
  stats : Relational.Stats.t Lazy.t;
      (** database statistics for cost annotation; forced only when a
          plan needs estimates (tracing, explain) *)
}

val prepare : Relational.Database.t -> Rxl.view -> prepared
val prepare_text : Relational.Database.t -> string -> prepared

(** How to choose the partition. *)
type strategy =
  | Unified  (** one SQL query (all edges kept) *)
  | Fully_partitioned  (** one SQL query per view-tree node *)
  | Edges of int  (** explicit edge mask *)
  | Greedy of Planner.params  (** the paper's plan-generation algorithm *)

val partition_of : prepared -> strategy -> Partition.t

(** Per-stream breakdown: every sub-query of a partition gets its own
    stats record, so callers can see where inside a plan the work went
    rather than only the sum. *)
type stream_exec = {
  se_stream : Sql_gen.stream;
  se_relation : Relational.Relation.t;
  se_sql : string;
  se_plan : Relational.Physical.plan;
      (** the executed physical plan, with actual rows/work per
          operator filled in *)
  se_stats : Relational.Executor.stats;
  se_wall_ms : float;
}

type execution = {
  streams : (Sql_gen.stream * Relational.Relation.t) list;
  per_stream : stream_exec list;  (** one entry per sub-query, in plan order *)
  sql_texts : string list;
  query_wall_ms : float;  (** measured engine time *)
  transfer_ms : float;  (** modeled client-transfer time *)
  work : int;  (** deterministic engine work units — sum over [per_stream] *)
  tuples : int;
  bytes : int;
}

val total_wall_ms : execution -> float
(** query + transfer, the paper's Total time. *)

(** Which sub-query exceeded the budget, and where it sat in the plan. *)
type timeout_info = {
  timeout_sql : string;  (** the offending SQL text *)
  timeout_stream : int;  (** index of the stream in plan order *)
  timeout_root : string;  (** fragment root's Skolem-function name *)
  timeout_elapsed_ms : float;  (** wall time spent before the budget hit *)
}

exception Plan_timeout of timeout_info
(** A sub-query exceeded the work budget (the paper's 5-minute
    per-query timeout).  The enclosing [execute.stream] span also gets
    [timeout]/[timeout.stream]/[timeout.root]/[timeout.elapsed_ms]
    attributes so traces show which sub-query blew the budget. *)

val execute :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  ?transfer:Relational.Transfer.config ->
  ?sql_syntax:[ `Derived | `With ] ->
  ?domains:int ->
  prepared ->
  Partition.t ->
  execution
(** [sql_syntax] selects how derived tables are shipped to the engine:
    inline subqueries (default) or a WITH clause (the paper's footnote 1
    alternative); both parse back to the same plan.  [domains] (default
    1) fans the plan's sub-queries out over a pool of that many OCaml 5
    domains; 1 is exactly the sequential path.  Output and all
    deterministic accounting (work, tuples, bytes, modeled transfer)
    are identical at every domain count — the merge-tagger tie-breaks
    by plan order. *)

val document_of : prepared -> execution -> Xmlkit.Xml.t
val xml_string_of : prepared -> execution -> string

val explain :
  ?style:Sql_gen.style -> ?reduce:bool -> prepared -> Partition.t -> string
(** Per stream: the shipped SQL, the rewritten logical algebra tree,
    and the cost-annotated physical plan (estimates only — nothing is
    executed). *)

val explain_execution : prepared -> execution -> string
(** Like {!explain} but over a finished {!execution}: the physical
    trees are the executed plans, so every operator shows estimated
    {e and} actual rows/work. *)

(** Per-stream breakdown of a streaming execution.  Stats, row/byte
    counts and modeled transfer are complete (accounted tuple-by-tuple
    while the result was spooled); the rows themselves are reachable
    only through the single-use cursor. *)
type stream_cursor = {
  sc_stream : Sql_gen.stream;
  sc_cursor : Relational.Cursor.t;
  sc_sql : string;
  sc_plan : Relational.Physical.plan;
      (** the executed physical plan, with actual figures filled in *)
  sc_stats : Relational.Executor.stats;
  sc_wall_ms : float;
  sc_rows : int;
  sc_bytes : int;
  sc_transfer_ms : float;
}

(** Result of a streaming execution: one spooled cursor per stream in
    plan order, plus the same accounting as {!execution} — work units,
    tuple/byte totals and modeled transfer are identical to the
    materialized path on the same plan.  Cursors are single-use: exactly
    one of {!document_of_streaming}, {!xml_string_of_streaming} or
    {!stream_to_channel} may consume a given value. *)
type streaming = {
  cursors : (Sql_gen.stream * Relational.Cursor.t) list;
  s_per_stream : stream_cursor list;
  s_sql_texts : string list;
  s_query_wall_ms : float;
  s_transfer_ms : float;
  s_work : int;
  s_tuples : int;
  s_bytes : int;
}

val execute_streaming :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  ?transfer:Relational.Transfer.config ->
  ?sql_syntax:[ `Derived | `With ] ->
  ?domains:int ->
  prepared ->
  Partition.t ->
  streaming
(** Like {!execute}, but each sub-query's sorted output is spooled to a
    temporary file (modeling a server-side result set) instead of being
    retained as a relation: live heap memory from here through tagging
    is bounded by the view-tree depth plus one tuple per stream,
    independent of the database size.  If a later stream fails
    (e.g. {!Plan_timeout}), the spooled cursors of already-completed
    streams are closed — their spool files do not outlive the call. *)

val explain_streaming : prepared -> streaming -> string
(** {!explain_execution} for the streaming path (plans come from
    [sc_plan]); does not touch the cursors. *)

val diagnose_samples : prepared -> execution -> Obs.Diagnose.sample list
(** Per-operator estimated-vs-actual records for every stream's physical
    plan, labelled by fragment root — input for {!Obs.Diagnose}.
    Estimates are present only if the execution ran with tracing on
    (that is when [Cost.annotate] fires); missing figures are
    negative and skipped by the detector. *)

val diagnose_samples_streaming : prepared -> streaming -> Obs.Diagnose.sample list
(** {!diagnose_samples} for the streaming/resilient path (plans come
    from [sc_plan]); does not touch the cursors. *)

(** What resilience cost during one {!execute_resilient} run: counters
    summed over the per-stream forked backends
    ({!Relational.Backend.fork}), plus the number of streams that had
    to be degraded to finer fragments.  All deterministic for a fixed
    fault seed, and identical at every domain count. *)
type resilience = {
  r_submits : int;  (** logical sub-query submissions, incl. degraded re-runs *)
  r_attempts : int;  (** physical attempts, including retries *)
  r_retries : int;
  r_faults : int;  (** injected faults that fired (any kind) *)
  r_timeouts : int;  (** work-budget exhaustions *)
  r_degraded : int;  (** streams split into finer fragments *)
  r_backoff_ms : float;  (** total (virtual) backoff slept *)
  r_wasted_work : int;  (** engine work burned by failed attempts *)
}

type resilient = { r_streaming : streaming; r_resilience : resilience }

val execute_resilient :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  ?transfer:Relational.Transfer.config ->
  ?sql_syntax:[ `Derived | `With ] ->
  ?backend:Relational.Backend.t ->
  ?max_splits:int ->
  ?domains:int ->
  prepared ->
  Partition.t ->
  resilient
(** Like {!execute_streaming}, but every sub-query goes through a
    per-stream {!Relational.Backend.fork} of [backend] (default: a
    fault-free backend over [p.db] with the given [budget]/[profile];
    both are ignored when [backend] is supplied).  [backend] serves as
    the config/seed template — its own counters never move; per-stream
    forking makes fault draws independent of cross-stream interleaving,
    so the resilience counters are identical at every [domains] count.
    Transient failures are retried with backoff, and a persistent
    failure — retries exhausted, a fatal fault, or a work-budget timeout
    — degrades only the offending stream by splitting its fragment
    along view-tree edges (at most [max_splits] nested splits per
    original stream) and re-executing the finer sub-queries.  The
    effective plan is still a point in the 2^|E| lattice, so the merged
    XML is byte-identical to a fault-free run, and the per-stream
    accounting covers exactly the winning attempts.  Raises
    {!Plan_timeout} when a single-node fragment times out (nothing finer
    exists), or the backend error when a single-node fragment fails
    fatally.  Emits [middleware.degraded_streams] metrics and
    [degraded.*] span attributes on top of the backend's own
    spans/metrics. *)

val document_of_streaming : prepared -> streaming -> Xmlkit.Xml.t
val xml_string_of_streaming : prepared -> streaming -> string

val stream_to_channel : prepared -> streaming -> out_channel -> unit
(** Tag and serialize straight to a channel; the document is never held
    in memory. *)

val materialize :
  ?style:Sql_gen.style ->
  ?reduce:bool ->
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  ?transfer:Relational.Transfer.config ->
  ?sql_syntax:[ `Derived | `With ] ->
  ?domains:int ->
  Relational.Database.t ->
  Rxl.view ->
  strategy ->
  Xmlkit.Xml.t * execution
(** One-call convenience: prepare, plan, execute, tag. *)

val materialize_naive : prepared -> Xmlkit.Xml.t
(** Ground truth: materializes the view via naive datalog evaluation of
    every node rule, bypassing SQL generation.  Tests validate every
    plan's output against this. *)
