(** The seed AST interpreter, the engine's differential reference. *)

val run_with_stats :
  ?budget:int ->
  ?profile:Relational.Executor.profile ->
  Relational.Database.t ->
  Relational.Sql.query ->
  Relational.Relation.t * Relational.Executor.stats
(** Evaluates [q] directly from its AST, charging the engine's work
    meter; raises {!Relational.Executor.Timeout} past a positive
    [budget]. *)
