(** Structured event log with a bounded ring-buffer flight recorder.

    Events are leveled, timestamped records with the same typed attrs
    spans carry.  The last [capacity] events are retained in a ring; on
    a catastrophic condition (plan timeout, fatal backend error) the
    instrumentation site calls {!dump} and the
    ring contents go to the sink — stderr by default.  Everything is
    gated on {!Control}, so emission with observability off costs one
    boolean test. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"] | ["info"] | ["warn"] | ["error"] — the JSONL encoding. *)

type t = {
  seq : int;  (** monotonic emission index; survives ring eviction *)
  ts_ns : int64;  (** {!Clock.now_ns} at emission *)
  level : level;
  name : string;
  attrs : Attr.t;
}

val debug : ?attrs:Attr.t -> string -> unit
val info : ?attrs:Attr.t -> string -> unit
val warn : ?attrs:Attr.t -> string -> unit
val error : ?attrs:Attr.t -> string -> unit
(** Each records an event at its level when observability is on and the
    level is at or above the threshold, and counts it in {!count}.  O(1); the oldest ring entry is evicted
    when full.  The calling domain's {!Span.base_attrs} (the request's
    trace id) are prepended to [attrs], and head sampling does not
    apply — a sampled-out request still leaves its events in the flight
    recorder. *)

val set_capacity : int -> unit
(** Replaces the ring (clearing it).  Default 256. *)

val set_threshold : level -> unit
(** Minimum level recorded (default [Debug]). *)

val events : unit -> t list
(** Live ring contents, oldest first. *)

val recorded : unit -> int
(** Total events recorded, evicted ones included. *)

val count : level -> int
(** Events recorded at [level], evicted ones included. *)

val dropped : unit -> int
(** How many recorded events the ring has evicted. *)

(** A flight-recorder dump: why, and the ring contents at that moment. *)
type dump = { reason : string; dumped : t list }

val render : dump -> string
(** Human-readable dump: header plus one line per event, timestamps
    relative to the oldest retained event. *)

val dump : reason:string -> unit
(** Hands the current ring contents to the sink (no-op when
    observability is off), and counts it in {!dump_count}. *)

val set_dump_sink : (dump -> unit) -> unit
(** Replaces the dump sink (default: {!render} to stderr). *)

val dump_count : unit -> int

val reset : unit -> unit
(** Clears the ring and the counts, and restores capacity, threshold
    and sink defaults. *)
