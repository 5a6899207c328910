(** Prometheus-style text exposition — the encoding of the server's
    wire-exposed telemetry ([M] protocol requests) and the input of the
    [silkroute monitor] view.

    {!render} produces the classic format ([# TYPE] comments plus
    [name{label="v"} value] lines); {!parse} reads it back, so producer
    and consumers cannot drift.  {!of_metrics} flattens the live
    {!Metrics} registry through a single consistent snapshot: counters
    become [<name>_total], gauges stay gauges, histograms become
    summaries (p50/p90/p99 quantile samples plus [_sum]/[_count]). *)

type kind = Counter | Gauge | Summary

type sample = {
  s_name : string;  (** already sanitized/prefixed *)
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : float;
}

val sample : ?labels:(string * string) list -> kind -> string -> float -> sample

val sanitize : string -> string
(** Folds every character outside [[a-zA-Z0-9_:]] to ['_'] — dotted
    registry names become exposition names. *)

val key_of : sample -> string
(** The exact [name{k="v",...}] key syntax {!render} prints and {!parse}
    returns. *)

val render : sample list -> string
(** One [# TYPE] comment per metric family (summary [_sum]/[_count]
    share their quantile samples' family), then one line per sample, in
    the given order. *)

val of_metrics : ?prefix:string -> unit -> sample list
(** The whole metrics registry as samples, names prefixed (default
    ["silkroute_"]), read through one {!Metrics.snapshot} call so
    concurrent writers can never tear a histogram mid-read. *)

exception Parse_error of string

type parsed = {
  values : (string * float) list;
      (** in exposition order, keyed by {!key_of}'s exact syntax *)
  types : (string * string) list;  (** family name -> kind string *)
}

val parse : string -> parsed
(** Raises {!Parse_error} on a malformed line, an unknown [# TYPE] kind
    or an unparsable sample value.  Non-TYPE comments and blank lines
    are ignored. *)

val find : parsed -> string -> float option
