(** Prometheus-style text exposition — the encoding of the server's
    wire-exposed telemetry ([M] protocol requests) and the input of the
    [silkroute monitor] view.

    {!render} produces the classic format ([# TYPE] comments plus
    [name{label="v"} value] lines); {!parse} reads it back, so producer
    and consumers cannot drift.  {!summary} exposes a {!Histogram} as
    p50/p90/p99 quantile samples plus [_sum]/[_count]. *)

type kind = Counter | Gauge | Summary

type sample = {
  s_name : string;  (** [a-zA-Z0-9_:] only *)
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : float;
}

val sample : ?labels:(string * string) list -> kind -> string -> float -> sample

val render : sample list -> string
(** One [# TYPE] comment per metric family (summary [_sum]/[_count]
    share their quantile samples' family), then one line per sample, in
    the given order. *)

val summary :
  ?labels:(string * string) list -> string -> Histogram.t -> sample list
(** [name{labels,quantile="0.5"|"0.9"|"0.99"}] (absent while [h] is
    empty), then [name_sum{labels}] and [name_count{labels}]. *)

exception Parse_error of string

type parsed = {
  values : (string * float) list;
      (** in exposition order, keyed by [name{k="v",...}] as {!render}
          prints it *)
  types : (string * string) list;  (** family name -> kind string *)
}

val parse : string -> parsed
(** Raises {!Parse_error} on a malformed line, an unknown [# TYPE] kind
    or an unparsable sample value.  Non-TYPE comments and blank lines
    are ignored. *)

val find : parsed -> string -> float option
