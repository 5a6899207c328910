(** Client-transfer cost model.

    The paper's Total time = server query time + time to bind and
    transfer tuples to the middleware over JDBC.  We model a result
    stream as per-stream statement setup + per-tuple binding overhead +
    payload bytes over a configured bandwidth.  NULL fields are cheap but
    not free, which reproduces the paper's observation that wide
    null-padded unified outer-join tuples are expensive to ship. *)

type config = {
  bytes_per_ms : float;
  per_tuple_overhead : float;  (** ms of binding cost per tuple *)
  per_stream_overhead : float;  (** ms of setup per tuple stream *)
}

val default : config

val tuple_ms : config -> bytes:int -> float
(** Transfer time of one tuple whose {!Tuple.wire_size} is [bytes]. *)

val relation_ms : config -> Relation.t -> float
val relations_ms : config -> Relation.t list -> float
