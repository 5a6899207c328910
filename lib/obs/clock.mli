(** Nanosecond clock with a swappable source (tests install a
    deterministic counter).

    The default source is the OS monotonic clock, so span durations
    survive NTP stepping the wall clock backwards.  Independently of the
    source, {!now_ns} never goes backwards: values are clamped to a
    non-decreasing watermark that resets when a new source is
    installed. *)

type source = unit -> int64

val wall : source
(** [Unix.gettimeofday]-derived nanoseconds; subject to NTP steps. *)

val now_ns : unit -> int64
val set_source : source -> unit
val use_default : unit -> unit
val ns_to_ms : int64 -> float
