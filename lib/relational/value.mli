(** SQL values.

    Values carry SQL's three-valued comparison semantics ({!compare3}
    returns [None] when either operand is NULL) alongside a total order
    ({!compare_total}) used for ORDER BY, in which NULL sorts before every
    non-NULL value.  The merge-based XML tagger depends on both streams
    and comparisons using the same total order. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Date of int  (** days since 1970-01-01 *)

(** Column types, used by schemas and the type checker. *)
type ty = TInt | TFloat | TBool | TString | TDate

val type_of : t -> ty option
(** [type_of v] is the type of [v], or [None] for NULL. *)

val ty_name : ty -> string
(** SQL spelling of a type, e.g. [VARCHAR]. *)

val is_null : t -> bool

val compare_total : t -> t -> int
(** Total order with NULL first; numeric types compare numerically and
    exactly: an Int is never rounded to a Float, so [Int (2^53 + 1)] is
    above [Float 2^53.], and the order is transitive.  NaN sorts below
    every number. *)

val compare3 : t -> t -> int option
(** SQL three-valued comparison: [None] (UNKNOWN) if either side is NULL. *)

val equal : t -> t -> bool
(** Equality under {!compare_total} (so [equal Null Null = true]; use
    {!compare3} for SQL predicate semantics). *)

val hash : t -> int
(** Hash consistent with {!equal}, for hash joins and grouping: [Int 2]
    and [Float 2.0] are equal and hash alike, as do [-0.0] and [0.0]. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by values under {!equal} and {!hash}. *)

val to_string : t -> string
(** Human-readable rendering (no quoting). *)

val to_sql : t -> string
(** SQL literal syntax, with string quoting/escaping. *)

val wire_size : t -> int
(** Bytes this value occupies in the client-transfer cost model. *)
