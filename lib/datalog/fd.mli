(** Functional-dependency reasoning over rule bodies.

    Implements the paper's C1 test (Sec. 3.5): does the parent node's
    Skolem term functionally determine the child's extra variables in the
    child rule's relation?  FDs only — inclusion dependencies are not
    chased, keeping the check tractable, as the paper prescribes
    (following Beeri–Bernstein). *)

val functionally_determines :
  schema_of:(string -> Relational.Schema.table) ->
  child:Rule.t ->
  string list ->
  string list ->
  bool
(** [functionally_determines ~schema_of ~child parent_vars child_vars]:
    the C1 test over the child rule's body. *)
