(** Bounded non-blocking JSONL writer for the server's slow-query log.

    A dedicated writer thread drains a bounded in-memory queue to the
    log file, so {!write} never blocks the request path on disk I/O.
    When the queue is full the record is dropped and counted rather
    than stalling the caller; {!dropped} exposes the loss for the
    telemetry exposition. *)

type t

val create : ?capacity:int -> path:string -> unit -> t
(** Opens (append mode, creating if needed) and starts the writer
    thread.  [capacity] bounds the in-memory queue (default 256
    records); it must be at least 1. *)

val write : t -> Obs.Json.t -> bool
(** Enqueues one record to be written as a single JSON line.  Returns
    [false] — and counts a drop — if the queue is full or the log is
    closed.  Never blocks on disk. *)

val written : t -> int
(** Records accepted into the queue since {!create}. *)

val dropped : t -> int
(** Records lost to a full queue (or a closed log). *)

val close : t -> unit
(** Marks the log closed, waits for the writer thread to drain the
    queue, and closes the file.  Idempotent; subsequent {!write}s are
    counted as drops. *)
