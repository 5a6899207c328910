(** Typed logical relational algebra.

    The lowering layer turns a {!Sql.query} into this IR exactly once,
    resolving every column reference to a tuple position (so ambiguity
    errors surface at plan time, not per row) and fixing the greedy
    connected-join order the interpreter used to pick on the fly.  The
    {!rewrite} pass then performs predicate pushdown, constant
    folding/propagation and projection pruning under one invariant: the
    rewritten plan must produce byte-identical output to the naive
    interpretation while never charging more work units. *)

exception Ambiguous_column of string
(** Raised during lowering when an unqualified column name matches more
    than one position of the scope it is resolved against. *)

type header = (string * string) array
(** [(alias, column)] per tuple position. *)

type prov = { p_alias : string; p_col : string }
(** Where a resolved column reference came from, kept for printing. *)

type expr =
  | Col of int * prov
  | Lit of Value.t
  | Cmp of Expr.cmp * expr * expr
  | Arith of Expr.arith * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr

type t =
  | Scan of { table : string; alias : string; cols : (int * string) array }
      (** [cols] maps output positions to stored-column indices; pruning
          narrows it.  The scan work charge is per stored row and does
          not depend on the projected width. *)
  | Dual  (** zero-column, one-row relation (empty FROM list) *)
  | Filter of { input : t; pred : expr; pushed : bool; charged : bool }
      (** [pushed]: the predicate runs earlier than a naive
          filter-after-product evaluation would place it.  [charged]:
          survivors pay the per-row emit charge (false only for
          predicates relocated out of join ON conditions, which the
          interpreter evaluated for free during probing). *)
  | Project of { input : t; items : (expr * string) array }
  | Join of {
      left : t;
      kind : Sql.join_kind;
      right : t;
      on : expr;
      from_where : bool;
          (** the ON condition was assembled from WHERE conjuncts by the
              greedy comma-FROM ordering, i.e. it is a pushed-down
              predicate relative to filter-after-cross-product *)
    }
  | Union_all of t * t
  | Derived of { input : t; alias : string }  (** sub-query boundary *)
  | Sort of { input : t; keys : (expr * Sql.dir) list }

(** {1 Inspection} *)

val header : t -> header
val width : t -> int

val is_lit : expr -> bool
val expr_positions : expr -> int list
val conjuncts : expr -> expr list

val conjoin : expr list -> expr
(** Inverse of {!conjuncts}; [conjoin \[\]] is [TRUE]. *)

val disjuncts : expr -> expr list
val to_resolved : expr -> Expr.resolved

val remap_expr : (int -> int) -> expr -> expr
(** Renumbers every column position. *)

val expr_to_string : expr -> string

(** {1 Lowering} *)

val lower : Database.t -> Sql.query -> t
(** Mirrors the seed interpreter's evaluation strategy structurally:
    greedy connected ordering of comma FROM lists, eager application of
    WHERE conjuncts as soon as their columns are in scope, applicable
    cross-table conjuncts becoming join ON conditions.  Raises
    {!Ambiguous_column} / {!Expr.Unresolved_column} on bad references
    and [Invalid_argument] on UNION ALL arity mismatches. *)

(** {1 Rewriting} *)

val rewrite : t -> t
(** Predicate pushdown (below charging projections only), constant
    propagation/folding (never inside join ON conditions, which would
    erase hash keys), and projection pruning with position remapping.
    Output rows, their order, and their values are preserved exactly;
    work charges can only decrease. *)

val to_string : t -> string
(** Indented logical tree, one operator per line, for [--explain]. *)
