(** Span-based tracing: hierarchical, monotonic-clock timed, with
    key/value attributes.  Spans nest by dynamic extent and are recorded
    in start (pre-) order; the log is the one account of span
    durations.

    Thread and domain safety: the stack of open spans, the parenting
    base and the request scope (base attributes, sampling flag, stage
    clock) are per-thread (keyed by [Thread.id], held only while the
    thread is inside a scoped call), so concurrent server sessions —
    threads of one domain — keep separate span trees.  Span ids and the log are shared under a mutex,
    with the clock sampled inside the append critical section so the log
    stays in global start order across threads and domains.
    {!context}/{!with_context} carry the parenting span across a thread
    or domain boundary (Domain_pool wraps every task it queues for a
    worker domain with them). *)

type t = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable attr_rev : Attr.t;
  mutable finished : bool;
  mutable gc_minor_words : float;
      (** minor words allocated during the span — meaningful only once
          [finished] (holds the open snapshot until then) *)
  mutable gc_major_words : float;  (** major-heap words, likewise *)
}

val with_span : ?attrs:Attr.t -> string -> (unit -> 'a) -> 'a
(** Runs [f] inside a span named [name].  When observability is off this
    is just [f ()]. *)

val with_request :
  trace_id:string -> sampled:bool -> Stage.clock -> (unit -> 'a) -> 'a
(** The request scope, for the extent of [f]: appends [trace_id] to
    the calling thread's base attributes (every span, and
    via {!Event} every event, opened inside carries it first), sets the
    head-sampling decision (with [sampled = false], {!with_span} runs
    its thunk directly and records nothing, while events and stage
    times still flow), and installs [clock] for {!with_stage}.  Nesting
    restores the outer scope on exit. *)

val with_stage : Stage.t -> (unit -> 'a) -> 'a
(** A stage boundary: runs [f] in a span named {!Stage.name}, and adds
    the boundary's monotonic duration to the clock the enclosing
    {!with_request} installed — sampled or not.  Boundaries must not
    nest, so the stages of one request sum to at most its wall time
    when its stages run sequentially. *)

type context
(** The telemetry position at some point in some thread's dynamic
    extent: the parenting span (spans opened under {!with_context}
    become children of the span that was innermost when {!context} was
    called), plus the request scope — base attributes, sampling
    decision and stage clock — so a request's trace id, head-sampling
    choice and stage times follow its work across the pool's submit
    boundary. *)

val context : unit -> context
(** The current position — the innermost open span of the calling
    thread (or its installed base when its stack is empty), together
    with the thread's request scope. *)

val with_context : context -> (unit -> 'a) -> 'a
(** Runs [f] with [ctx] installed as the calling thread's parenting
    base and request scope, restoring the previous state afterwards.
    Used by pool workers so a task's spans land under the span that
    submitted it, carry its trace id and feed its stage clock. *)

val base_attrs : unit -> Attr.t
(** The calling thread's current base attributes ([[]] outside any
    {!with_request}). *)

val tracing : unit -> bool
(** Alias for {!Control.is_enabled}: guard attribute computation at the
    instrumentation site. *)

val add : string -> Attr.value -> unit
(** Attaches an attribute to the innermost open span (no-op when off or
    when no span is open). *)

val add_list : Attr.t -> unit

val spans : unit -> t list
(** Completed and open spans in start (pre-) order. *)

val attrs : t -> Attr.t
(** Attributes in insertion order. *)

val duration_ms : t -> float

val find_attr : t -> string -> Attr.value option
(** First attribute named [key], in insertion order — how the server
    finds a span's [trace_id]. *)

val prune : (t -> bool) -> unit
(** Drops {e finished} spans matching the predicate from the log (open
    spans always survive).  A server that does not retain spans prunes
    each request's spans once it has answered, so a long-running process
    stays bounded. *)

val reset : unit -> unit

val set_gc_source : (unit -> float * float) -> unit
(** Replaces the allocation counter sampled at span open/close with a
    custom [(minor_words, major_words)] source — tests install a
    deterministic counter, like {!Clock.set_source}. *)

val use_default_gc_source : unit -> unit
(** Restores the default source: the calling domain's
    [Gc.minor_words], and the major words of its [Gc.counters]. *)
