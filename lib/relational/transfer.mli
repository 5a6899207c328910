(** Client-transfer cost model.

    The paper's Total time = server query time + time to bind and
    transfer tuples to the middleware over JDBC.  We model a result
    stream as per-stream statement setup + per-tuple binding overhead +
    payload bytes over a configured bandwidth.  NULL fields are cheap but
    not free, which reproduces the paper's observation that wide
    null-padded unified outer-join tuples are expensive to ship. *)

val bytes_per_ms : float
(** Simulated link and driver throughput. *)

val per_tuple_ms : float
(** Binding cost of one tuple. *)

val per_stream_ms : float
(** Setup of one tuple stream (one statement). *)

val stream_ms : tuples:int -> bytes:int -> float
(** Transfer time of a stream of [tuples] rows whose {!Tuple.wire_size}s
    sum to [bytes]: the model is linear, so this is
    [per_stream_ms + tuples * per_tuple_ms + bytes / bytes_per_ms]. *)
