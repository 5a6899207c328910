(* SQL abstract syntax.  This dialect covers exactly what SilkRoute's
   translator emits (Sec. 3.4 of the paper): SELECT-FROM-WHERE blocks,
   LEFT OUTER JOIN with ON conditions, derived tables, UNION ALL (the
   outer union; branches are NULL-padded to a common width by the
   generator), and a trailing ORDER BY. *)

type dir = Asc | Desc
type join_kind = Inner | Left_outer

type select_item = { expr : Expr.t; alias : string }

type table_ref =
  | Table of { name : string; alias : string }
  | Derived of { query : query; alias : string }
  | Join of { left : table_ref; kind : join_kind; right : table_ref; on : Expr.t }

and body = Select of select | Union_all of body * body

and select = {
  items : select_item list;
  from : table_ref list; (* comma list; [] means a one-row dual *)
  where : Expr.t option;
}

and query = { body : body; order_by : (Expr.t * dir) list }

let item ?alias expr =
  let alias =
    match alias with
    | Some a -> a
    | None -> (
        match expr with
        | Expr.Col (_, c) -> c
        | _ -> invalid_arg "Sql.item: complex select item needs an alias")
  in
  { expr; alias }
