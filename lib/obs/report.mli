(** Human-readable sinks: flame-style indented span tree and a metrics
    table, rendered from the global collectors. *)

val render_spans : unit -> string
val render_metrics : unit -> string
