(** Typed logical relational algebra.

    The lowering layer turns a {!Sql.query} into this IR exactly once,
    resolving every column reference to a tuple position with
    {!Expr.resolve} (so ambiguity errors surface at plan time, not per
    row) and fixing the greedy connected-join order the interpreter used
    to pick on the fly.  Expressions are {!Expr.resolved}; they carry no
    names, so the printers name each position from its operator's
    {!header}.  The
    {!rewrite} pass then performs predicate pushdown, constant
    folding/propagation and projection pruning under one invariant: the
    rewritten plan must produce byte-identical output to the naive
    interpretation while never charging more work units. *)

exception Ambiguous_column of string
(** Raised during lowering when an unqualified column name matches more
    than one position of the scope it is resolved against. *)

type header = (string * string) array
(** [(alias, column)] per tuple position. *)

type t =
  | Scan of { table : string; alias : string; cols : (int * string) array }
      (** [cols] maps output positions to stored-column indices; pruning
          narrows it.  The scan work charge is per stored row and does
          not depend on the projected width. *)
  | Dual  (** zero-column, one-row relation (empty FROM list) *)
  | Filter of { input : t; pred : Expr.resolved; pushed : bool; charged : bool }
      (** [pushed]: the predicate runs earlier than a naive
          filter-after-product evaluation would place it.  [charged]:
          survivors pay the per-row emit charge (false only for
          predicates relocated out of join ON conditions, which the
          interpreter evaluated for free during probing). *)
  | Project of { input : t; items : (Expr.resolved * string) array }
  | Join of {
      left : t;
      kind : Sql.join_kind;
      right : t;
      on : Expr.resolved;
      from_where : bool;
          (** the ON condition was assembled from WHERE conjuncts by the
              greedy comma-FROM ordering, i.e. it is a pushed-down
              predicate relative to filter-after-cross-product *)
    }
  | Union_all of t * t
  | Derived of { input : t; alias : string }  (** sub-query boundary *)
  | Sort of { input : t; keys : (Expr.resolved * Sql.dir) list }

(** {1 Inspection} *)

val header : t -> header
val width : t -> int

val expr_to_string : header -> Expr.resolved -> string
(** Prints an expression over a row of [header], naming each position
    by its (alias, column) there ([alias.column], or [column] under an
    empty alias). *)

val keys_to_string : header -> (Expr.resolved * Sql.dir) list -> string
(** Sort keys over a row of [header], as [--explain] prints them. *)

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
