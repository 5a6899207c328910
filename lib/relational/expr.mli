(** Scalar expressions and predicates with SQL three-valued logic.

    Expressions reference columns by (optional qualifier, name); they are
    {!resolve}d to tuple positions once per query, then evaluated per
    tuple. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div

type t =
  | Col of string option * string
  | Lit of Value.t
  | Cmp of cmp * t * t
  | Arith of arith * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t

(** {1 Construction helpers} *)

(** {1 Analysis} *)

val conjuncts : t -> t list
(** Flattens nested [And]s into a conjunct list. *)

val conjoin : t list -> t
(** Inverse of {!conjuncts}; [conjoin \[\]] is [TRUE]. *)

val columns : t -> (string option * string) list
(** All column references, with duplicates. *)

val as_column_equality :
  t -> ((string option * string) * (string option * string)) option
(** Recognizes [a.x = b.y], the shape usable by hash joins. *)

val to_sql : t -> string

(** {1 Resolution and evaluation} *)

type resolved =
  | R_col of int
  | R_lit of Value.t
  | R_cmp of cmp * resolved * resolved
  | R_arith of arith * resolved * resolved
  | R_and of resolved * resolved
  | R_or of resolved * resolved
  | R_not of resolved
  | R_is_null of resolved
  | R_is_not_null of resolved
      (** Position-resolved expression: column references are tuple indices.
          The one form below the SQL AST: the algebra, physical-plan and
          cost layers build, rewrite and price these, and print them
          through {!unresolve} with names from their operator's header. *)

exception Unresolved_column of string

val resolve : (string option * string -> int option) -> t -> resolved
(** [resolve lookup e] maps every column reference to a tuple position.
    Raises {!Unresolved_column} when [lookup] returns [None]. *)

val unresolve : (int -> string option * string) -> resolved -> t
(** [unresolve name r] names every position [i] as [name i], for
    printing with {!to_sql}. *)

val r_conjuncts : resolved -> resolved list
val r_conjoin : resolved list -> resolved
(** {!conjuncts} and {!conjoin} over resolved expressions. *)

val r_disjuncts : resolved -> resolved list
(** Flattens nested [R_or]s. *)

val positions : resolved -> int list
(** Every column position read, with duplicates. *)

val subst : (int -> resolved) -> resolved -> resolved
(** [subst f r] replaces every [R_col i] of [r] with [f i]. *)

val apply_cmp : cmp -> int -> bool
(** Interprets a comparison operator over a [Value.compare3] result. *)

val apply_arith : arith -> Value.t -> Value.t -> Value.t
(** Arithmetic with SQL NULL propagation; division by zero yields NULL. *)

val eval : resolved -> Tuple.t -> Value.t
(** Full evaluation; comparisons involving NULL yield NULL (UNKNOWN). *)

val eval_pred : resolved -> Tuple.t -> bool
(** WHERE semantics: true iff {!eval} yields [Bool true] (UNKNOWN rejects). *)

val compile : resolved -> Tuple.t -> Value.t
(** [compile r] resolves the expression tree to a closure once; the
    returned function agrees with [eval r] on every tuple but pays no
    per-row tree traversal.  Operators call it once per operator instead
    of re-interpreting the tree per row. *)

val compile_pred : resolved -> Tuple.t -> bool
(** Compiled form of {!eval_pred}: agrees with it on every tuple, with
    AND/OR/NOT spines specialised to unboxed booleans. *)

val compile_join : split:int -> resolved -> Tuple.t -> Tuple.t -> Value.t
(** [compile_join ~split e] is [e] over (left row, right row), where [e]
    is resolved against their concatenation and the left row has [split]
    columns: [compile_join ~split e l r = compile e (Tuple.concat l r)],
    but each row is read in place.  A column of either row and a literal
    are read directly, a subtree reading one side is {!compile} over that
    row, and only the nodes reading both sides are compiled here. *)

val compile_join_pred : split:int -> resolved -> Tuple.t -> Tuple.t -> bool
(** [compile_join_pred ~split e] is a join's ON over (left row, right
    row): [compile_join_pred ~split e l r = compile_pred e (Tuple.concat
    l r)], but each row is read in place.  Only AND/OR spines and
    cross-side comparisons are compiled here; one-sided subtrees go
    through {!compile_pred}, and any other node that reads both sides
    through {!compile_join}. *)
