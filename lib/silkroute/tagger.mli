(** The XML tagger (paper Sec. 3.3).

    Merges the sorted tuple streams of a plan's fragments under the view
    tree's global sort-attribute order, re-nests tuples and emits tags in
    a single pass.  Memory is bounded by the view-tree size (open-element
    stack plus pending text/fused payloads per element), not by the
    database size.

    Streams are consumed through pull cursors ({!Relational.Cursor}) and
    merged with a tree of losers carrying offset-value codes: each head
    is coded by the first step (L component or key variable) at which it
    differs from the last tuple out, so most matches are integer
    compares, and the winner's code gives the depth of the open-element
    stack it shares.  Ties are broken by stream position, so the merge
    order matches a left-to-right scan.  A stream whose tuples are not in
    that order raises [Invalid_argument], naming the stream's position
    and its fragment root.  Texts reach the sink as the values the
    tuples hold.  The string and channel writers render each element's
    tags once per call and write a value without making a string of it
    first (an Int is formatted into the output, a String escaped in
    place, NULL writes nothing); the string path writes into fixed-size
    chunks copied once into the result. *)

(** Event consumer.  Elements are named by view-tree node id, -1 for
    the document root; a text is the value of a content column or
    constant, NULL included (it renders as nothing).
    {!to_string_cursors} and {!to_channel} serialize directly (the
    constant-space paths); {!to_document} builds an in-memory tree. *)
type sink = {
  on_open : int -> unit;
  on_text : Relational.Value.t -> unit;
  on_close : int -> unit;
}

val tag_cursors :
  View_tree.t ->
  (Sql_gen.stream * Relational.Cursor.t) list ->
  sink ->
  unit
(** Merge-and-tag from cursors.  Each cursor must produce its stream's
    query result in the stream's ORDER BY order; cursors are drained
    exactly once.  Tuples are dropped as soon as they are processed.
    Under tracing, the enclosing span gets [streams], [tuples],
    [elements], [texts], [work] and [full_compares] (the ties between
    heads that only a column walk settled). *)

val to_document :
  View_tree.t -> (Sql_gen.stream * Relational.Relation.t) list -> Xmlkit.Xml.t
(** Merge-and-tag into an in-memory document: each non-NULL text is
    {!Relational.Value.to_string}'s, and an empty text adds no node. *)

val to_document_cursors :
  View_tree.t -> (Sql_gen.stream * Relational.Cursor.t) list -> Xmlkit.Xml.t

val to_string :
  View_tree.t -> (Sql_gen.stream * Relational.Relation.t) list -> string

val to_string_cursors :
  View_tree.t -> (Sql_gen.stream * Relational.Cursor.t) list -> string

val to_channel :
  View_tree.t ->
  (Sql_gen.stream * Relational.Cursor.t) list ->
  out_channel ->
  unit
(** Tag and serialize directly to a channel: the end-to-end streaming
    sink. *)
