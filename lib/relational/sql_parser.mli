(** Recursive-descent parser for the middleware SQL dialect.

    [parse (Sql_print.to_string q)] reconstructs [q] (structural
    round-trip, enforced by the test suite). *)

exception Parse_error of string

val parse : string -> Sql.query
(** Parses a complete query.  The dialect is the one {!Sql_print}
    writes: SELECT, FROM lists with (LEFT OUTER) JOIN and derived
    tables, WHERE, UNION ALL and ORDER BY; there is no WITH clause.
    Raises {!Parse_error} or {!Sql_lexer.Lex_error} on malformed
    input. *)
