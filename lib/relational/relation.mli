(** Materialized result sets.

    Stored tables live in {!Database}; this type is what query execution
    produces and what the middleware's merge tagger consumes as sorted
    tuple streams. *)

type t

val create : string array -> Tuple.t list -> t
(** [create cols rows] checks every tuple has arity [Array.length cols].
    Raises [Invalid_argument] otherwise. *)

val cols : t -> string array
val rows : t -> Tuple.t list
val cardinality : t -> int

val column_index : t -> string -> int option

val sort_by : int array -> t -> t
(** Stable sort by the given column positions under the total value
    order (NULL first). *)

val equal : t -> t -> bool
(** Same columns, same tuples in the same order. *)
