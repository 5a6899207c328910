(** JSON-Lines exporter: one object per line, ["type"] discriminated
    (["span"], then ["event"], then ["profile"]),
    optionally tagged with an experiment name so bench runs can be
    diffed stage by stage.  Span [start_ns] and event [ts_ns] values are
    rebased to the trace's first span, so two runs of the same pipeline
    produce diffable files.  See docs/OBSERVABILITY.md for the schema. *)

val to_lines : ?experiment:string -> unit -> string list
(** Every recorded span (rebased), the flight recorder's live events
    and the aggregated profile tree, as encoded JSON lines. *)

val write_channel : ?experiment:string -> out_channel -> unit
val write_file : ?experiment:string -> string -> unit
