(** SQL AST → text.

    The middleware ships SQL text to the engine, so this printer and
    {!Sql_parser} must round-trip every query the generator produces;
    the test suite enforces this. *)

val to_string : Sql.query -> string
(** Canonical single-line rendering. *)

val to_pretty_string : Sql.query -> string
(** Indented multi-line rendering for humans; parses identically. *)
