(** The server's wire protocol: length-prefixed frames over any byte
    channel (the CLI speaks it over a Unix-domain socket).

    A frame is a 4-byte big-endian field count followed by that many
    fields, each a 4-byte big-endian length plus raw bytes.  The first
    field is a one-character tag selecting the message; the rest are
    positional.  Framing is symmetric, so both sides reuse the same
    reader/writer; malformed frames raise {!Protocol_error} rather than
    leaking [End_of_file] or [Failure] from the decoder. *)

exception Protocol_error of string

val max_field_bytes : int
(** The largest field either side reads or writes: 64 MiB. *)

type request =
  | Query of { view : string; strategy : string; reduce : bool }
      (** Materialize [view] (RXL source text) under [strategy]
          (unified | partitioned | greedy | edges:MASK). *)
  | Invalidate of { table : string; factor : float }
      (** Bump the server's data epoch, flushing the result cache; plans
          survive.  A non-empty [table] first skews that table's catalog
          entry by [factor] ([--skew-stats]-style), which also bumps the
          stats epoch and flushes the plan cache. *)
  | Stats  (** Ask for the server's counter report. *)
  | Metrics
      (** Ask for the live telemetry exposition (Prometheus-style text:
          request and per-stage latency, cache tiers, admission, pool
          depth, SLO, event counts).
          Tag [M]; carries no fields — extra fields are a
          {!Protocol_error}. *)
  | Health
      (** Ask for a cheap liveness summary (status, uptime, stats
          epoch, queue depth).  Tag [H]; carries no fields. *)
  | Shutdown  (** Stop the server after replying. *)

(** Which cache tiers served (part of) a query. *)
type tiers = { statement_hit : bool; plan_hit : bool; result_hit : bool }

type reply =
  | Result of { xml : string; tiers : tiers; work : int; est_cost : float }
      (** [work] is the engine work actually spent on this request —
          0 on a result-cache hit.  [est_cost] is the admission
          estimate. *)
  | Info of string
      (** Stats report, telemetry exposition, health summary or
          shutdown acknowledgement. *)
  | Rejected of string  (** Admission control refused the query. *)
  | Failed of string  (** Execution raised; the message names the error. *)

val write_request : out_channel -> request -> unit
(** Writes and flushes one frame.  A field longer than
    {!max_field_bytes} raises {!Protocol_error} before any byte is
    written. *)

val read_request : in_channel -> request option
(** [None] on a clean EOF at a frame boundary. *)

val write_reply : out_channel -> reply -> unit
(** As {!write_request}: an oversized field (a document above
    {!max_field_bytes}) raises {!Protocol_error} and writes nothing. *)

val read_reply : in_channel -> reply option

val reply_name : reply -> string
