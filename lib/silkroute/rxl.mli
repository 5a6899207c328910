(** RXL (Relational to XML transformation Language) abstract syntax.

    An RXL query combines SQL-style extraction ([from]/[where]) with
    XML-QL-style construction ([construct]).  It supports the paper's
    three structuring features: nested queries inside construct clauses,
    parallel blocks (union), and optional explicit Skolem terms. *)

type binding = { var : string; table : string }
(** [$var] iterating over [table]. *)

type operand =
  | Field of string * string  (** [$s.name] *)
  | Const of Relational.Value.t

type condition = { op : Relational.Expr.cmp; left : operand; right : operand }

type node =
  | Element of element
  | Text of operand  (** character data: a field or a constant *)
  | Block of query  (** nested [{ from … construct … }] sub-query *)

and element = {
  tag : string;
  skolem : string option;  (** explicit Skolem function name *)
  content : node list;
}

and query = {
  from_ : binding list;
  where_ : condition list;
  construct : node list;
}

type view = { root_tag : string; queries : query list }
(** A literal document root wrapping parallel top-level queries. *)

val binding : string -> string -> binding
val cond : Relational.Expr.cmp -> operand -> operand -> condition
val field : string -> string -> operand
val element : ?skolem:string -> string -> node list -> node
val query : ?where_:condition list -> binding list -> node list -> query
val view : string -> query list -> view

exception Ill_formed of string

val check : Relational.Database.t -> view -> unit
(** Validates the view against the database schema: tables and columns
    exist, tuple variables are in scope and unshadowed, construct clauses
    are non-empty, top-level constructs are elements.  Raises
    {!Ill_formed} with a message otherwise. *)

val to_string : view -> string
(** Concrete RXL syntax, re-parseable by {!Rxl_parser}. *)
