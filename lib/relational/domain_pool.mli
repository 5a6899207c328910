(** A bounded pool of OCaml 5 worker domains with task submit/await —
    the execution substrate for parallel sub-query fan-out (per-stream
    EXCHANGE parallelism below the deterministic merge-tagger).

    Tasks are closures run FIFO on whichever worker frees up first.  A
    task's exception is captured and re-raised (with its backtrace) by
    {!await} on the submitting domain; workers never die to one.
    {!submit} captures the caller's {!Obs.Span.context} and the worker
    reinstalls it, so a task's spans parent under the submitting span
    (an inline task runs on the caller's thread, already inside it).

    A pool created with [domains <= 1] spawns no workers: {!submit}
    runs the task inline on the calling thread, making the sequential
    case exactly the unpooled code path.  The pool belongs to whoever
    created it: a caller that fans out opens one pool (usually with
    {!with_pool}) and hands it down; everyone else uses {!inline}. *)

type t

type 'a handle
(** The pending/completed result of one submitted task. *)

val create : domains:int -> t
(** [create ~domains] spawns [domains] worker domains ([domains <= 1]:
    none — inline execution).  Raises [Invalid_argument], before
    spawning any, when [domains < 1] or [domains > 127]: the runtime
    allows 128 domains, the calling one included. *)

val inline : t
(** A shared pool with no workers: {!submit} runs the task on the
    calling thread before returning.  Never shut it down. *)

val size : t -> int
(** The [domains] the pool was created with. *)

val queue_depth : t -> int
(** Tasks submitted but not yet picked up by a worker — the backlog the
    server's telemetry endpoint reports.  Always 0 on an inline pool. *)

val submit : t -> (unit -> 'a) -> 'a handle
(** Enqueues a task (or runs it inline on an inline pool).  Raises
    [Invalid_argument] if the pool has been shut down. *)

val await : 'a handle -> 'a
(** Blocks until the task completes; returns its value or re-raises its
    exception with the original backtrace.  A task that ran on a worker
    hands the words it promoted and allocated in the major heap to the
    awaiting domain ({!Obs.Profile.add_awaited}), so a run's GC record
    covers its pool. *)

val shutdown : t -> unit
(** Drains remaining queued tasks, then joins all workers.  Idempotent
    in effect; submitting after shutdown raises. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — shutdown runs even on exception. *)
