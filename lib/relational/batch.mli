(** Fixed-size row chunks with selection vectors — the unit of work of
    the vectorized execution path.

    A batch holds up to [capacity] tuples together with each row's byte
    figure: its {!Tuple.wire_size}, summed once by the operator that
    built the row (a projection, or a join's concatenation) and carried
    through filters, unions and sorts to the drain, which adds the
    figures up without reading a value.  Scans carry 0, "not carried": no
    plan delivers or sorts a scan's rows directly, and a join that reads
    them sums their sizes itself.  Part of each figure may be
    uncharged: an output projection's literal columns skip the emission
    charge (the narrow-emission discount), and their summed size, one
    constant per projection, is the batch's {!uncharged} — what a sort
    takes off each live row to charge what emission charged.  Filtering
    does not copy rows: {!filter} returns a batch over the same rows
    with a selection vector of live row indexes, so a chain of
    predicates touches each row array exactly once.

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

val create : ?size:int -> ?uncharged:int -> unit -> t
(** Fresh empty batch with room for [size] rows (default
    {!default_size}), whose rows' figures include [uncharged] bytes no
    sort charges (default 0).  [size] must be at least 1. *)

val of_rows : ?bytes:int array -> Tuple.t array -> t
(** Full batch taking ownership of [rows] (capacity = length = array
    length) and of their byte figures [bytes] (default all 0;
    [Invalid_argument] unless as long as [rows]).  Bulk alternative to
    repeated {!push} for producers that already hold an array — a scan's
    slices, and a Sort's whole output, which is one batch of any
    length.  Its {!uncharged} is 0. *)

val uncharged : t -> int
(** Bytes of each live row's figure that no sort charges: the wire size
    of the uncharged literal columns of the projection that built the
    batch, 0 for any other producer.  {!filter} keeps it. *)

val length : t -> int
(** Number of live rows: pushed rows minus those dropped by {!keep}. *)

val is_full : t -> bool

val push : t -> bytes:int -> Tuple.t -> unit
(** Append a row with its byte figure, 0 meaning "not carried".  Raises
    [Invalid_argument] if the batch is full or carries a selection
    vector. *)

val get : t -> int -> Tuple.t
(** [get b i] is the [i]-th {e live} row, respecting the selection
    vector. *)

val bytes_at : t -> int -> int
(** Byte figure of the [i]-th live row. *)

val total_bytes : t -> int
(** Sum of the live rows' byte figures. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** [iter f b] applies [f row bytes] to each live row in order. *)

val filter : (Tuple.t -> bool) -> t -> t
(** [filter p b] is a batch of [b]'s live rows that pass [p], sharing
    [b]'s rows under a new selection vector (no row is copied); [b]
    itself is not changed.  Composes: filtering a filtered batch only
    tests the rows that survived the first predicate. *)

val to_list : t -> Tuple.t list
(** Live rows in order. *)
