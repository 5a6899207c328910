(** Pull-based tuple cursors: the streaming counterpart of {!Relation}.

    A cursor pairs named columns with a pull function producing tuples
    one at a time.  Cursors are single-use: once {!next} returns [None]
    (or the rows have been drained by {!iter}/{!to_list}/…), the cursor
    is exhausted.  The executor produces cursors over sorted query
    output; the merge tagger consumes one cursor per stream, so tuples
    become garbage as soon as they have been tagged. *)

type t

val arity : t -> int

val next : t -> Tuple.t option
(** Pull the next tuple, or [None] at end of stream. *)

val close : t -> unit
(** Releases the cursor's backing resources (spool file, open channel)
    without draining it; subsequent {!next} calls return [None].  Safe
    to call on any cursor, exhausted or not, any number of times.
    Exhausting a cursor releases its resources too — [close] is for
    cursors abandoned mid-stream (plan timeout, degradation). *)

val empty : string array -> t
val of_list : string array -> Tuple.t list -> t

val of_relation : Relation.t -> t
(** Cursor over a materialized relation's rows, in order. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Drains the cursor.  If the callback raises, the cursor is {!close}d
    before the exception propagates, so backing resources (spool files,
    open channels) are not leaked by a throwing consumer.  The same
    holds for {!to_list} and {!spool}, which drain through [iter]. *)

val to_list : t -> Tuple.t list
val to_relation : t -> Relation.t

val spool : t -> t
(** [spool c] drains [c] to a temporary file immediately and returns a cursor that reads the
    tuples back on demand.  This bounds live heap memory during
    consumption to one tuple per open cursor, independent of the result
    cardinality, modeling a server-side result set streamed over the
    wire.  The spool file is deleted when the last tuple is read, or by
    {!close} on a cursor abandoned before exhaustion. *)

val of_batches : string array -> Batch.t list -> t
(** Cursor over the live rows of [batches], batch by batch, respecting
    selection vectors. *)
