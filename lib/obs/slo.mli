(** Rolling SLO tracker: sliding-window latency/error accounting over a
    ring of fixed windows, with p99-vs-target burn-rate detection.

    The tracker covers the last [windows * window_ms] of traffic.  Each
    window is a fixed-bucket latency histogram plus sample/error counts;
    recording is O(1), memory is capped, and stale windows recycle
    lazily — no timer thread.  The {e burn rate} is the worse of
    [p99 / target_p99_ms] and [error_rate / max_error_rate]; crossing
    1.0 emits one [slo.burn] warn event (and dropping back under it one
    [slo.recover] info event), so a sustained breach cannot flood the
    flight recorder.

    Callers supply [now_ms]; the server feeds the monotonic clock, tests
    feed a scripted one, so window arithmetic stays deterministic. *)

type config = {
  window_ms : float;  (** width of one accounting window *)
  windows : int;  (** ring size; the sliding window covers [windows * window_ms] *)
  target_p99_ms : float;  (** latency objective *)
  max_error_rate : float;  (** error budget as a fraction of requests *)
}

val default_config : config
(** 60 windows of 1 s, p99 target 250 ms, 1% error budget. *)

type t

val create : ?config:config -> unit -> t

val record : t -> ?error:bool -> now_ms:float -> float -> unit
(** Accounts one request: its latency in ms (ignored when
    [error = true] — an error consumes error budget, not the latency
    distribution).  Thread-safe; evaluates the burn rate and emits the
    breach/recovery transition events. *)

(** The sliding window's current accounting. *)
type snapshot = {
  samples : int;  (** successes + errors across live windows *)
  errors : int;
  error_rate : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;  (** 0 when there are no latency samples *)
  latency_burn : float;  (** p99 / target *)
  error_burn : float;  (** error rate / budget *)
  burn_rate : float;  (** max of the two; > 1.0 means breached *)
  breached : bool;
  covered_windows : int;  (** live windows aggregated into this snapshot *)
}

val snapshot : t -> now_ms:float -> snapshot
