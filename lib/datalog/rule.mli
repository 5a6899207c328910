(** Non-recursive datalog with filters — the annotation language of view
    trees (paper Sec. 3.1).

    Each view-tree node carries one rule whose head is a Skolem term and
    whose body conjoins the from/where clauses in scope.  Atoms are
    positional over stored relations; [Wild] positions are the paper's
    underscores. *)

type term = Var of string | Const of Relational.Value.t | Wild

type atom = { rel : string; args : term list }

type filter = { op : Relational.Expr.cmp; left : term; right : term }

type t = {
  head_name : string;  (** Skolem function name, e.g. ["S1.2"] *)
  head_vars : string list;  (** Skolem-term arguments *)
  atoms : atom list;
  filters : filter list;
}

val atom : string -> term list -> atom
val filter : Relational.Expr.cmp -> term -> term -> filter

val make :
  head_name:string ->
  head_vars:string list ->
  ?filters:filter list ->
  atom list ->
  t

val atom_vars : atom -> string list

val is_safe : t -> bool
(** Every head variable occurs in a body atom. *)

val to_string : t -> string
