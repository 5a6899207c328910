(** A fixed-bucket histogram: a plain value with no global state, owned
    by whoever observes into it (each SLO window, the server's request
    and per-stage latencies).  The owner serializes access. *)

type t = {
  bounds : float array;  (** strictly increasing inclusive upper edges *)
  counts : int array;  (** [Array.length bounds + 1] cells, overflow last *)
  mutable sum : float;
  mutable n : int;
}

val duration_bounds : float array
(** Millisecond durations: 1µs to ~1min in powers of four. *)

val create : float array -> t
(** An empty histogram over [bounds]. *)

val bucket_index : float array -> float -> int
(** Smallest [i] with [x <= bounds.(i)], or [Array.length bounds] for
    the overflow bucket.  Binary search over the (strictly increasing)
    edges. *)

val observe : t -> float -> unit

val clear : t -> unit

val add : into:t -> t -> unit
(** Adds the second histogram's observations to [into]; both must have
    the same bounds. *)

val percentile : t -> float -> float option
(** Estimated [q]-quantile ([q] clamped to [0,1]) by log-linear
    interpolation inside the bucket holding the [q*n]-th observation
    (linear from zero in the first bucket).  A percentile landing in the
    overflow bucket reports the last bound — a conservative lower bound.
    [None] when the histogram is empty or has no bounds. *)

val p50_90_99 : t -> (float * float * float) option
(** The three percentiles every report wants, in one call. *)
