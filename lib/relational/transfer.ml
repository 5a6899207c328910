(* The client-transfer model.

   The paper's Total time = server query time + time to bind and transfer
   tuples to SilkRoute over JDBC.  We model the transfer of a result
   stream as a per-stream setup, a per-tuple binding overhead and payload
   bytes over a configured bandwidth.  NULL fields are cheap but not free
   (Value.wire_size), which reproduces the paper's observation that wide,
   null-padded unified outer-join tuples are expensive to ship even when
   the query itself is fast.  The model is linear, so a stream's time
   needs only its tuple count and byte total. *)

let bytes_per_ms = 2000.0
let per_tuple_ms = 0.02
let per_stream_ms = 5.0

let stream_ms ~tuples ~bytes =
  per_stream_ms
  +. (float_of_int tuples *. per_tuple_ms)
  +. (float_of_int bytes /. bytes_per_ms)
