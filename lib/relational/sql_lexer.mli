(** Tokenizer for the middleware SQL dialect.

    Keywords are not reserved here; {!Sql_parser} matches identifiers
    case-insensitively where it expects a keyword. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

exception Lex_error of string * int
(** Message and byte offset of the failure. *)

val token_to_string : token -> string

val tokenize : string -> token array
(** Tokenizes a full query; the result always ends with {!EOF}.  String
    literals use SQL [''] escaping; numeric literals include hex floats
    (the printer's lossless float syntax).  Raises {!Lex_error} on an
    unexpected character, an unterminated string, or a numeric literal
    that does not convert (["4E"], ["0x"], an integer out of range). *)
