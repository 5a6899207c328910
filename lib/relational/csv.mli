(** CSV import/export against the catalog.

    RFC-4180-ish: comma separators, double-quote quoting with [""]
    escapes, LF or CRLF terminators.  Loading is typed by the target
    table's schema; an *unquoted* empty field in a nullable column loads
    as NULL (a quoted [""] is the empty string). *)

exception Csv_error of string * int
(** Message and 1-based row number.  The message carries full
    diagnostics — source file (when given), row, column and offending
    value — so it can be surfaced verbatim. *)

val load : ?source:string -> ?header:bool -> Database.t -> string -> string -> int
(** [load db table text] inserts the records of [text] into [table] and
    returns the row count.  With [header] (default), the first record
    names the columns and may reorder or omit nullable ones.  [source]
    (usually the file name) prefixes every diagnostic.  Raises
    {!Csv_error} on malformed input, {!Database.Constraint_violation} on
    type/NULL violations. *)

val export : Database.t -> string -> string
(** Header + one record per stored row; round-trips through {!load}
    (floats use lossless hex notation). *)
