(** Human-readable sink: a flame-style indented span tree, rendered from
    the span log. *)

val render_spans : unit -> string
