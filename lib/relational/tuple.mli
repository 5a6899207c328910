(** Tuples: value arrays with positional helpers.

    These functions are the hot path of joins, sorting and the
    constant-space merge tagger. *)

type t = Value.t array

val arity : t -> int
val concat : t -> t -> t

val all_null : int -> t
(** [all_null n] is the NULL padding tuple of arity [n], used by outer
    joins and outer unions. *)

val project : int array -> t -> t
(** [project positions t] keeps the fields of [t] at [positions], in
    order. *)

val compare_at : int array -> t -> t -> int
(** Lexicographic comparison restricted to [positions], under the total
    value order (NULL first). *)

val equal_at : int array -> t -> int array -> t -> bool
(** [equal_at pa a pb b]: the fields of [a] at [pa] equal those of [b]
    at [pb], pairwise under {!Value.equal} (NULL equals NULL).  Reads
    both tuples in place. *)

val hash_at : int array -> t -> int
(** Hash of the fields at [positions]; equal under {!equal_at}, equal
    hash. *)

val compare : t -> t -> int
(** Full lexicographic comparison (shorter tuples first). *)

val equal : t -> t -> bool

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by whole tuples under {!equal}: [Value.equal]
    field by field, so [Int 2] and [Float 2.0] are one key. *)

val wire_size : t -> int
(** Total bytes in the client-transfer cost model. *)

val to_string : t -> string
