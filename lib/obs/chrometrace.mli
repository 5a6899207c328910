(** Chrome trace-event exporter.

    Renders the global collectors — span tree and flight-recorder
    events — as Chrome trace-event JSON ([{"traceEvents": [...]}]),
    loadable in Perfetto or chrome://tracing: complete events ("ph":"X")
    for finished spans, instants ("ph":"i") for events.
    Timestamps are microseconds rebased to the trace's first span —
    the same timeline the JSONL exporter describes. *)

val write_file : string -> unit
(** Writes the whole trace as one JSON document (plus a trailing
    newline) to the given path. *)
