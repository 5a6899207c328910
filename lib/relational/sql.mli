(** SQL abstract syntax for the middleware dialect.

    Covers exactly what SilkRoute's translator emits (paper Sec. 3.4):
    SELECT-FROM-WHERE, LEFT OUTER JOIN … ON, derived tables, UNION ALL
    (the outer union), and a trailing ORDER BY. *)

type dir = Asc | Desc
type join_kind = Inner | Left_outer

type select_item = { expr : Expr.t; alias : string }

type table_ref =
  | Table of { name : string; alias : string }
  | Derived of { query : query; alias : string }
  | Join of {
      left : table_ref;
      kind : join_kind;
      right : table_ref;
      on : Expr.t;
    }

and body = Select of select | Union_all of body * body

and select = {
  items : select_item list;
  from : table_ref list;  (** comma list; [[]] is a one-row dual *)
  where : Expr.t option;
}

and query = { body : body; order_by : (Expr.t * dir) list }

val item : ?alias:string -> Expr.t -> select_item
(** Builds a select item; a bare column reference defaults its alias to
    the column name, anything else requires [?alias]. *)
