(* The client-transfer model.

   The paper's Total time = server query time + time to bind and transfer
   tuples to SilkRoute over JDBC.  We model the transfer of a result
   relation as a per-tuple binding overhead plus payload bytes over a
   configured bandwidth.  NULL fields are cheap but not free
   (Value.wire_size), which reproduces the paper's observation that wide,
   null-padded unified outer-join tuples are expensive to ship even when
   the query itself is fast. *)

type config = {
  bytes_per_ms : float;     (* simulated link+driver throughput *)
  per_tuple_overhead : float; (* ms of binding overhead per tuple *)
  per_stream_overhead : float; (* ms of setup per tuple stream (statement) *)
}

let default =
  { bytes_per_ms = 2000.0; per_tuple_overhead = 0.02; per_stream_overhead = 5.0 }

(* Takes the tuple's [Tuple.wire_size], which the caller has usually
   computed already for its byte count. *)
let tuple_ms cfg ~bytes =
  cfg.per_tuple_overhead +. (float_of_int bytes /. cfg.bytes_per_ms)

let relation_ms cfg r =
  List.fold_left
    (fun acc t -> acc +. tuple_ms cfg ~bytes:(Tuple.wire_size t))
    cfg.per_stream_overhead (Relation.rows r)

let relations_ms cfg rs = List.fold_left (fun acc r -> acc +. relation_ms cfg r) 0.0 rs
