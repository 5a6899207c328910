(** The C2 inclusion test of paper Sec. 3.5: every parent tuple extends
    to at least one child tuple.  It is decided conservatively (sound,
    not complete) by chasing the child's extra atoms with NOT NULL
    foreign keys and declared inclusion dependencies; the paper
    prescribes exactly this kind of restricted check since the general
    problem is undecidable. *)

val always_extends :
  schema_of:(string -> Relational.Schema.table) ->
  inclusions:Relational.Schema.inclusion list ->
  parent:Rule.t ->
  child:Rule.t ->
  bool
(** The C2 test.  True when the chase proves every tuple of [parent]'s
    body has a matching extension in [child]'s body (child's body must
    syntactically extend the parent's, as view-tree scoping guarantees). *)
