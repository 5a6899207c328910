(** A small XPath subset for extracting fragments of materialized views.

    Grammar:
    {v
    path := ('/' | '//') step { ('/' | '//') step }
    step := (NAME | '*') { pred }
    pred := '[' INT ']'                  positional, 1-based
          | '[' NAME '=' "'" text "'" ']'  child-text equality
          | '[' NAME ']'                 child existence
    v}

    ['/'] selects children, ['//'] descendants-or-self; the first step
    addresses the root element (e.g. [/suppliers/supplier]). *)

exception Parse_error of string

type t

val parse : string -> t
(** Raises {!Parse_error} with an offset on malformed paths. *)

val select_text : Xml.t -> string -> string list
(** Text content of each matching element. *)

val count : Xml.t -> string -> int
val exists : Xml.t -> string -> bool
