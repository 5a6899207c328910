(** Fixed-size row chunks with selection vectors — the unit of work of
    the vectorized execution path.

    A batch holds up to [capacity] tuples together with the per-row
    charged-byte figure that the executor threads from projections down
    to sorts.  Filtering does not copy rows: {!keep} installs (or
    refines) a selection vector of live row indexes, so a chain of
    predicates touches each row array exactly once.

    Invariant: a batch is append-only until the first {!keep}; pushing
    into a batch that carries a selection vector is a programming error
    ([Invalid_argument]). *)

type t

val default_size : int
(** 256 rows — the largest chunk whose row array still fits the OCaml
    minor heap ([Max_young_wosize]).  Bigger batches are valid but pay
    major-heap write barriers on every push. *)

val create : ?size:int -> unit -> t
(** Fresh empty batch with room for [size] rows (default
    {!default_size}).  [size] must be at least 1. *)

val of_rows : Tuple.t array -> t
(** Full batch taking ownership of [rows] (capacity = length = array
    length), all charged-byte figures 0.  Bulk alternative to repeated
    {!push} for producers that already hold an array. *)

val capacity : t -> int

val length : t -> int
(** Number of live rows: pushed rows minus those dropped by {!keep}. *)

val is_full : t -> bool

val push : t -> ?bytes:int -> Tuple.t -> unit
(** Append a row (with its charged-byte figure, default 0).  Raises
    [Invalid_argument] if the batch is full or carries a selection
    vector. *)

val get : t -> int -> Tuple.t
(** [get b i] is the [i]-th {e live} row, respecting the selection
    vector. *)

val bytes_at : t -> int -> int
(** Charged bytes of the [i]-th live row. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** [iter f b] applies [f row bytes] to each live row in order. *)

val keep : (Tuple.t -> bool) -> t -> int
(** [keep p b] drops live rows failing [p] by refining the selection
    vector in place (no row is copied); returns the surviving count.
    Composes: a second [keep] only re-tests rows that survived the
    first. *)

val to_list : t -> Tuple.t list
(** Live rows in order. *)
