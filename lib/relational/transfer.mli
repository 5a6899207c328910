(** Client-transfer cost model.

    The paper's Total time = server query time + time to bind and
    transfer tuples to the middleware over JDBC.  We model a result
    stream as per-stream statement setup + per-tuple binding overhead +
    payload bytes over a configured bandwidth.  NULL fields are cheap but
    not free, which reproduces the paper's observation that wide
    null-padded unified outer-join tuples are expensive to ship. *)

val stream_ms : tuples:int -> bytes:int -> float
(** Transfer time of a stream of [tuples] rows whose {!Tuple.wire_size}s
    sum to [bytes]: the model is linear, 5 ms of statement setup plus
    0.02 ms a tuple plus [bytes] at 2000 bytes per ms. *)
