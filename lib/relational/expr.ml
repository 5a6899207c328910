(* Scalar expressions and predicates with SQL three-valued logic.
   Expressions are built with possibly-qualified column references and are
   resolved to tuple positions before execution. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div

type t =
  | Col of string option * string (* qualifier, column *)
  | Lit of Value.t
  | Cmp of cmp * t * t
  | Arith of arith * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Lit (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

let rec columns = function
  | Col (q, c) -> [ (q, c) ]
  | Lit _ -> []
  | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) ->
      columns a @ columns b
  | Not e | Is_null e | Is_not_null e -> columns e

(* An equality between two plain columns, suitable for hash joins. *)
let as_column_equality = function
  | Cmp (Eq, Col (qa, ca), Col (qb, cb)) -> Some ((qa, ca), (qb, cb))
  | _ -> None

let cmp_name = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let arith_name = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec to_sql = function
  | Col (None, c) -> c
  | Col (Some q, c) -> q ^ "." ^ c
  | Lit v -> Value.to_sql v
  | Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_sql a) (cmp_name op) (to_sql b)
  | Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_sql a) (arith_name op) (to_sql b)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_sql a) (to_sql b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_sql a) (to_sql b)
  | Not e -> Printf.sprintf "(NOT %s)" (to_sql e)
  | Is_null e -> Printf.sprintf "(%s IS NULL)" (to_sql e)
  | Is_not_null e -> Printf.sprintf "(%s IS NOT NULL)" (to_sql e)

(* --- Resolution and evaluation ------------------------------------- *)

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

exception Unresolved_column of string

(* The inverse of {!resolve} for printing: [name i] is position [i]'s
   column reference. *)
let rec unresolve name = function
  | R_col i ->
      let q, c = name i in
      Col (q, c)
  | R_lit v -> Lit v
  | R_cmp (op, a, b) -> Cmp (op, unresolve name a, unresolve name b)
  | R_arith (op, a, b) -> Arith (op, unresolve name a, unresolve name b)
  | R_and (a, b) -> And (unresolve name a, unresolve name b)
  | R_or (a, b) -> Or (unresolve name a, unresolve name b)
  | R_not e -> Not (unresolve name e)
  | R_is_null e -> Is_null (unresolve name e)
  | R_is_not_null e -> Is_not_null (unresolve name e)

let rec r_conjuncts = function
  | R_and (a, b) -> r_conjuncts a @ r_conjuncts b
  | e -> [ e ]

let r_conjoin = function
  | [] -> R_lit (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> R_and (acc, c)) e rest

let rec r_disjuncts = function
  | R_or (a, b) -> r_disjuncts a @ r_disjuncts b
  | e -> [ e ]

let rec positions = function
  | R_col i -> [ i ]
  | R_lit _ -> []
  | R_cmp (_, a, b) | R_arith (_, a, b) | R_and (a, b) | R_or (a, b) ->
      positions a @ positions b
  | R_not e | R_is_null e | R_is_not_null e -> positions e

let rec subst f = function
  | R_col i -> f i
  | R_lit _ as e -> e
  | R_cmp (op, a, b) -> R_cmp (op, subst f a, subst f b)
  | R_arith (op, a, b) -> R_arith (op, subst f a, subst f b)
  | R_and (a, b) -> R_and (subst f a, subst f b)
  | R_or (a, b) -> R_or (subst f a, subst f b)
  | R_not e -> R_not (subst f e)
  | R_is_null e -> R_is_null (subst f e)
  | R_is_not_null e -> R_is_not_null (subst f e)

let rec resolve lookup = function
  | Col (q, c) -> (
      match lookup (q, c) with
      | Some i -> R_col i
      | None ->
          raise
            (Unresolved_column
               (match q with Some q -> q ^ "." ^ c | None -> c)))
  | Lit v -> R_lit v
  | Cmp (op, a, b) -> R_cmp (op, resolve lookup a, resolve lookup b)
  | Arith (op, a, b) -> R_arith (op, resolve lookup a, resolve lookup b)
  | And (a, b) -> R_and (resolve lookup a, resolve lookup b)
  | Or (a, b) -> R_or (resolve lookup a, resolve lookup b)
  | Not e -> R_not (resolve lookup e)
  | Is_null e -> R_is_null (resolve lookup e)
  | Is_not_null e -> R_is_not_null (resolve lookup e)

let[@inline] apply_cmp op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* SQL comparison under WHERE semantics without the [int option] of
   {!Value.compare3}: NULL on either side is UNKNOWN, which rejects. *)
let[@inline] test op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> false
  | _ -> apply_cmp op (Value.compare_total a b)

let apply_arith op a b =
  let open Value in
  match (op, a, b) with
  | _, Null, _ | _, _, Null -> Null
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int _, Int 0 -> Null
  | Div, Int x, Int y -> Int (x / y)
  | Add, Float x, Float y -> Float (x +. y)
  | Sub, Float x, Float y -> Float (x -. y)
  | Mul, Float x, Float y -> Float (x *. y)
  | Div, Float x, Float y -> if y = 0.0 then Null else Float (x /. y)
  | Add, Int x, Float y -> Float (float_of_int x +. y)
  | Sub, Int x, Float y -> Float (float_of_int x -. y)
  | Mul, Int x, Float y -> Float (float_of_int x *. y)
  | Div, Int x, Float y -> if y = 0.0 then Null else Float (float_of_int x /. y)
  | Add, Float x, Int y -> Float (x +. float_of_int y)
  | Sub, Float x, Int y -> Float (x -. float_of_int y)
  | Mul, Float x, Int y -> Float (x *. float_of_int y)
  | Div, Float _, Int 0 -> Null
  | Div, Float x, Int y -> Float (x /. float_of_int y)
  | Add, String x, String y -> String (x ^ y)
  | _ -> Null

(* Value-level evaluation; predicates become Bool or Null (UNKNOWN). *)
let rec eval (r : resolved) (t : Tuple.t) : Value.t =
  match r with
  | R_col i -> t.(i)
  | R_lit v -> v
  | R_cmp (op, a, b) -> (
      match Value.compare3 (eval a t) (eval b t) with
      | None -> Value.Null
      | Some c -> Value.Bool (apply_cmp op c))
  | R_arith (op, a, b) -> apply_arith op (eval a t) (eval b t)
  | R_and (a, b) -> (
      match (eval a t, eval b t) with
      | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
      | Value.Bool true, Value.Bool true -> Value.Bool true
      | _ -> Value.Null)
  | R_or (a, b) -> (
      match (eval a t, eval b t) with
      | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
      | Value.Bool false, Value.Bool false -> Value.Bool false
      | _ -> Value.Null)
  | R_not e -> (
      match eval e t with
      | Value.Bool b -> Value.Bool (not b)
      | _ -> Value.Null)
  | R_is_null e -> Value.Bool (Value.is_null (eval e t))
  | R_is_not_null e -> Value.Bool (not (Value.is_null (eval e t)))

(* WHERE-clause semantics: UNKNOWN filters the row out. *)
let eval_pred r t = match eval r t with Value.Bool true -> true | _ -> false

(* --- Compilation ---------------------------------------------------- *)

(* The node semantics {!compile} and {!compile_join} share, over the
   operands' values.  [and_rest va vb] and [or_rest va vb] finish an AND
   or OR whose left operand [va] did not already decide it. *)
let[@inline] cmp_value op va vb =
  if Value.is_null va || Value.is_null vb then Value.Null
  else if apply_cmp op (Value.compare_total va vb) then Value.Bool true
  else Value.Bool false

let[@inline] and_rest va vb =
  match vb with
  | Value.Bool false -> Value.Bool false
  | Value.Bool true -> (
      match va with Value.Bool true -> Value.Bool true | _ -> Value.Null)
  | _ -> Value.Null

let[@inline] or_rest va vb =
  match vb with
  | Value.Bool true -> Value.Bool true
  | Value.Bool false -> (
      match va with Value.Bool false -> Value.Bool false | _ -> Value.Null)
  | _ -> Value.Null

let[@inline] not_value = function
  | Value.Bool b -> Value.Bool (not b)
  | _ -> Value.Null

(* Resolve the expression tree to a closure once; the per-row call then
   pays no tree traversal.  Evaluation is pure and total, so the
   short-circuits below are observationally equivalent to {!eval}. *)
let rec compile (r : resolved) : Tuple.t -> Value.t =
  match r with
  | R_col i -> fun t -> t.(i)
  | R_lit v -> fun _ -> v
  | R_cmp (op, a, b) ->
      let fa = compile a and fb = compile b in
      fun t -> cmp_value op (fa t) (fb t)
  | R_arith (op, a, b) ->
      let fa = compile a and fb = compile b in
      fun t -> apply_arith op (fa t) (fb t)
  | R_and (a, b) ->
      let fa = compile a and fb = compile b in
      fun t ->
        (match fa t with
        | Value.Bool false as f -> f
        | va -> and_rest va (fb t))
  | R_or (a, b) ->
      let fa = compile a and fb = compile b in
      fun t ->
        (match fa t with
        | Value.Bool true as v -> v
        | va -> or_rest va (fb t))
  | R_not e ->
      let fe = compile e in
      fun t -> not_value (fe t)
  | R_is_null e ->
      let fe = compile e in
      fun t -> Value.Bool (Value.is_null (fe t))
  | R_is_not_null e ->
      let fe = compile e in
      fun t -> Value.Bool (not (Value.is_null (fe t)))

(* Boolean specialisation of {!compile} under WHERE semantics (UNKNOWN
   is false), skipping the Value.Bool boxing on AND/OR/NOT spines.
   Comparisons of a column with a literal or another column read the
   row directly. *)
let rec compile_pred (r : resolved) : Tuple.t -> bool =
  match r with
  | R_lit v -> fun _ -> v = Value.Bool true
  | R_cmp (op, R_col i, R_lit v) -> fun t -> test op t.(i) v
  | R_cmp (op, R_lit v, R_col i) -> fun t -> test op v t.(i)
  | R_cmp (op, R_col i, R_col j) -> fun t -> test op t.(i) t.(j)
  | R_cmp (op, a, b) ->
      let fa = compile a and fb = compile b in
      fun t -> test op (fa t) (fb t)
  | R_and (a, b) ->
      let pa = compile_pred a and pb = compile_pred b in
      fun t -> pa t && pb t
  | R_or (a, b) ->
      let pa = compile_pred a and pb = compile_pred b in
      fun t -> pa t || pb t
  | R_not e ->
      let fe = compile e in
      fun t -> (match fe t with Value.Bool false -> true | _ -> false)
  | R_is_null e ->
      let fe = compile e in
      fun t -> Value.is_null (fe t)
  | R_is_not_null e ->
      let fe = compile e in
      fun t -> not (Value.is_null (fe t))
  | (R_col _ | R_arith _) as e ->
      let fe = compile e in
      fun t -> (match fe t with Value.Bool true -> true | _ -> false)

(* --- Join predicates ------------------------------------------------ *)

(* An expression over a joined row, annotated bottom-up, once per node,
   with the sides it reads: bit 1 the left row (positions below the
   split), bit 2 the right row. *)
type sided = { e : resolved; sides : int; kids : sided list }

let rec sided split e =
  let kids =
    match e with
    | R_col _ | R_lit _ -> []
    | R_cmp (_, a, b) | R_arith (_, a, b) | R_and (a, b) | R_or (a, b) ->
        [ sided split a; sided split b ]
    | R_not a | R_is_null a | R_is_not_null a -> [ sided split a ]
  in
  let sides =
    match e with
    | R_col i -> if i < split then 1 else 2
    | _ -> List.fold_left (fun acc k -> acc lor k.sides) 0 kids
  in
  { e; sides; kids }

(* An expression over (left row, right row), read in place: a column
   of either row or a literal is read directly, a subtree reading one
   side is {!compile} over that row (columns shifted for the right), and
   a node reading both sides combines its operands as {!compile} does. *)
let rec join_value split s : Tuple.t -> Tuple.t -> Value.t =
  match (s.sides, s.e, s.kids) with
  | _, R_col i, _ ->
      if i < split then fun l _ -> l.(i)
      else
        let i = i - split in
        fun _ r -> r.(i)
  | _, R_lit v, _ -> fun _ _ -> v
  | 2, _, _ ->
      let f = compile (subst (fun i -> R_col (i - split)) s.e) in
      fun _ r -> f r
  | (0 | 1), _, _ ->
      let f = compile s.e in
      fun l _ -> f l
  | _, R_cmp (op, _, _), [ a; b ] ->
      let fa = join_value split a and fb = join_value split b in
      fun l r -> cmp_value op (fa l r) (fb l r)
  | _, R_arith (op, _, _), [ a; b ] ->
      let fa = join_value split a and fb = join_value split b in
      fun l r -> apply_arith op (fa l r) (fb l r)
  | _, R_and _, [ a; b ] ->
      let fa = join_value split a and fb = join_value split b in
      fun l r ->
        (match fa l r with
        | Value.Bool false as f -> f
        | va -> and_rest va (fb l r))
  | _, R_or _, [ a; b ] ->
      let fa = join_value split a and fb = join_value split b in
      fun l r ->
        (match fa l r with
        | Value.Bool true as v -> v
        | va -> or_rest va (fb l r))
  | _, R_not _, [ a ] ->
      let fa = join_value split a in
      fun l r -> not_value (fa l r)
  | _, R_is_null _, [ a ] ->
      let fa = join_value split a in
      fun l r -> Value.Bool (Value.is_null (fa l r))
  | _, R_is_not_null _, [ a ] ->
      let fa = join_value split a in
      fun l r -> Value.Bool (not (Value.is_null (fa l r)))
  | _ -> invalid_arg "Expr.compile_join"

let compile_join ~split e = join_value split (sided split e)

(* ON over (left row, right row), read in place.  Only the AND/OR spine
   and the comparisons across the two sides are compiled here, with
   direct kernels for a column against a column of the other side or a
   literal; any other subtree reading one side is {!compile_pred} over
   that row, and an operand or other node reading both sides is
   {!compile_join}'s. *)
let compile_join_pred ~split (e : resolved) : Tuple.t -> Tuple.t -> bool =
  let rec pred s =
    match (s.sides, s.e, s.kids) with
    | 1, R_cmp (op, R_col i, R_lit v), _ -> fun l _ -> test op l.(i) v
    | 2, R_cmp (op, R_col i, R_lit v), _ ->
        let i = i - split in
        fun _ r -> test op r.(i) v
    | 2, _, _ ->
        let p = compile_pred (subst (fun i -> R_col (i - split)) s.e) in
        fun _ r -> p r
    | (0 | 1), _, _ ->
        let p = compile_pred s.e in
        fun l _ -> p l
    | _, R_and _, [ a; b ] ->
        let pa = pred a and pb = pred b in
        fun l r -> pa l r && pb l r
    | _, R_or _, [ a; b ] ->
        let pa = pred a and pb = pred b in
        fun l r -> pa l r || pb l r
    | _, R_cmp (op, R_col i, R_col j), _ ->
        if i < split then
          let j = j - split in
          fun l r -> test op l.(i) r.(j)
        else
          let i = i - split in
          fun l r -> test op r.(i) l.(j)
    | _, R_cmp (op, _, _), [ a; b ] ->
        let fa = join_value split a and fb = join_value split b in
        fun l r -> test op (fa l r) (fb l r)
    | _ ->
        let f = join_value split s in
        fun l r -> (match f l r with Value.Bool true -> true | _ -> false)
  in
  pred (sided split e)
