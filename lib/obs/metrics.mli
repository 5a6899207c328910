(** The metrics registry: named counters, gauges and fixed-bucket
    histograms, looked up by name at the instrumentation site.  All
    writes are gated on {!Control}; with observability off a metric call
    is a single boolean test. *)

type histogram = {
  bounds : float array;  (** strictly increasing inclusive upper edges *)
  counts : int array;  (** [Array.length bounds + 1] cells, overflow last *)
  mutable sum : float;
  mutable n : int;
}

val default_bounds : float array
(** Powers of four from 1 to ~4M — wide enough for work units, rows and
    bytes without per-metric tuning. *)

val duration_bounds : float array
(** Millisecond durations: 1µs to ~1min in powers of four. *)

val bucket_index : float array -> float -> int
(** Smallest [i] with [x <= bounds.(i)], or [Array.length bounds] for
    the overflow bucket.  Binary search over the (strictly increasing)
    edges — this is the per-observation hot path. *)

val incr : ?by:int -> string -> unit
val set_gauge : string -> float -> unit

val observe : ?bounds:float array -> string -> float -> unit
(** Records [x] into the histogram named [name], creating it with
    [bounds] (default {!default_bounds}) on first use. *)

val reset : unit -> unit

type snapshot = SCounter of int | SGauge of float | SHistogram of histogram

val snapshot : unit -> (string * snapshot) list
(** All metrics, sorted by name.  Histogram arrays are copies. *)

val counter_value : string -> int option
val histogram_snapshot : string -> histogram option

val percentile : histogram -> float -> float option
(** Estimated [q]-quantile ([q] clamped to [0,1]) by log-linear
    interpolation inside the bucket holding the [q*n]-th observation
    (linear from zero in the first bucket).  A percentile landing in the
    overflow bucket reports the last bound — a conservative lower bound.
    [None] when the histogram is empty or has no bounds. *)

val p50_90_99 : histogram -> (float * float * float) option
(** The three percentiles every report column wants, in one call. *)
