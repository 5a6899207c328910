(** Fixed-size row chunks with selection vectors — the unit of work of
    the vectorized execution path.

    A batch holds up to [capacity] tuples together with the per-row
    charged-byte figure that the executor threads from projections down
    to sorts.  Filtering does not copy rows: {!filter} returns a batch
    over the same rows with a selection vector of live row indexes, so a
    chain of predicates touches each row array exactly once.

    Invariant: a batch is append-only while it is built and read-only
    once it is handed on — {!filter} leaves its input as it was, so one
    batch can feed any number of consumers (the executor replays a
    shared subtree's batches to several streams).  Pushing into a batch
    that carries a selection vector is a programming error
    ([Invalid_argument]). *)

type t

val default_size : int
(** 256 rows — the largest chunk whose row array still fits the OCaml
    minor heap ([Max_young_wosize]).  Operators below a Sort push their
    output into batches of this size; bigger batches are valid but pay
    major-heap write barriers on every push, so only {!of_rows} builds
    them (a Sort's result). *)

val create : ?size:int -> unit -> t
(** Fresh empty batch with room for [size] rows (default
    {!default_size}).  [size] must be at least 1. *)

val of_rows : ?bytes:int array -> Tuple.t array -> t
(** Full batch taking ownership of [rows] (capacity = length = array
    length) and of their charged-byte figures [bytes] (default all 0;
    [Invalid_argument] unless as long as [rows]).  Bulk alternative to
    repeated {!push} for producers that already hold an array — a scan's
    slices, and a Sort's whole output, which is one batch of any
    length. *)

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

val filter : (Tuple.t -> bool) -> t -> t
(** [filter p b] is a batch of [b]'s live rows that pass [p], sharing
    [b]'s rows under a new selection vector (no row is copied); [b]
    itself is not changed.  Composes: filtering a filtered batch only
    tests the rows that survived the first predicate. *)

val to_list : t -> Tuple.t list
(** Live rows in order. *)
