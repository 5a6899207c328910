(* Recursive-descent parser for the middleware SQL dialect.  Together with
   Sql_print this round-trips every query the SilkRoute generator emits. *)

open Sql_lexer

exception Parse_error of string

type state = { toks : token array; mutable pos : int }

let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "%s at token %d (%s)" msg st.pos
          (token_to_string st.toks.(min st.pos (Array.length st.toks - 1)))))

let peek st = st.toks.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else EOF

let advance st = st.pos <- st.pos + 1

let expect st t =
  if peek st = t then advance st
  else fail st (Printf.sprintf "expected %s" (token_to_string t))

(* [s] spells the upper-case keyword [k] in any case.  Compared in
   place: the parser tests every identifier against keywords. *)
let kw_eq s k =
  let n = String.length k in
  String.length s = n
  &&
  let rec go i = i >= n || (Char.uppercase_ascii s.[i] = k.[i] && go (i + 1)) in
  go 0

let rec kw_mem s = function [] -> false | k :: ks -> kw_eq s k || kw_mem s ks

let is_kw st k =
  match peek st with IDENT s -> kw_eq s k | _ -> false

let eat_kw st k =
  if is_kw st k then (
    advance st;
    true)
  else false

let expect_kw st k = if not (eat_kw st k) then fail st ("expected " ^ k)

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

(* Identifiers that cannot start a FROM alias / continue a from item. *)
let reserved_here s =
  kw_mem s
    [
      "SELECT"; "FROM"; "WHERE"; "ON"; "JOIN"; "LEFT"; "INNER"; "OUTER";
      "UNION"; "ALL"; "ORDER"; "BY"; "AND"; "OR"; "NOT"; "IS"; "NULL";
      "AS"; "ASC"; "DESC";
    ]

(* --- expressions ---------------------------------------------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if is_kw st "OR" then (
    advance st;
    Expr.Or (left, parse_or st))
  else left

and parse_and st =
  let left = parse_unary st in
  if is_kw st "AND" then (
    advance st;
    Expr.And (left, parse_and st))
  else left

and parse_unary st =
  if is_kw st "NOT" then (
    advance st;
    Expr.Not (parse_unary st))
  else parse_cmp st

and parse_cmp st =
  let left = parse_add st in
  match peek st with
  | EQ ->
      advance st;
      Expr.Cmp (Expr.Eq, left, parse_add st)
  | NEQ ->
      advance st;
      Expr.Cmp (Expr.Neq, left, parse_add st)
  | LT ->
      advance st;
      Expr.Cmp (Expr.Lt, left, parse_add st)
  | LE ->
      advance st;
      Expr.Cmp (Expr.Le, left, parse_add st)
  | GT ->
      advance st;
      Expr.Cmp (Expr.Gt, left, parse_add st)
  | GE ->
      advance st;
      Expr.Cmp (Expr.Ge, left, parse_add st)
  | IDENT s when kw_eq s "IS" ->
      advance st;
      if eat_kw st "NOT" then (
        expect_kw st "NULL";
        Expr.Is_not_null left)
      else (
        expect_kw st "NULL";
        Expr.Is_null left)
  | _ -> left

and parse_add st =
  let rec go left =
    match peek st with
    | PLUS ->
        advance st;
        go (Expr.Arith (Expr.Add, left, parse_mul st))
    | MINUS ->
        advance st;
        go (Expr.Arith (Expr.Sub, left, parse_mul st))
    | _ -> left
  in
  go (parse_mul st)

and parse_mul st =
  let rec go left =
    match peek st with
    | STAR ->
        advance st;
        go (Expr.Arith (Expr.Mul, left, parse_atom st))
    | SLASH ->
        advance st;
        go (Expr.Arith (Expr.Div, left, parse_atom st))
    | _ -> left
  in
  go (parse_atom st)

and parse_atom st =
  match peek st with
  | INT n ->
      advance st;
      Expr.Lit (Value.Int n)
  | FLOAT f ->
      advance st;
      Expr.Lit (Value.Float f)
  | STRING s ->
      advance st;
      Expr.Lit (Value.String s)
  | MINUS ->
      advance st;
      (* negative literal *)
      (match peek st with
      | INT n ->
          advance st;
          Expr.Lit (Value.Int (-n))
      | FLOAT f ->
          advance st;
          Expr.Lit (Value.Float (-.f))
      | _ -> fail st "expected numeric literal after unary minus")
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st RPAREN;
      e
  | IDENT s when kw_eq s "NULL" ->
      advance st;
      Expr.Lit Value.Null
  | IDENT s when kw_eq s "TRUE" ->
      advance st;
      Expr.Lit (Value.Bool true)
  | IDENT s when kw_eq s "FALSE" ->
      advance st;
      Expr.Lit (Value.Bool false)
  | IDENT s when kw_eq s "DATE" -> (
      advance st;
      match peek st with
      | INT n ->
          advance st;
          Expr.Lit (Value.Date n)
      | _ -> fail st "expected day count after DATE")
  | IDENT q when peek2 st = DOT ->
      advance st;
      advance st;
      let c = ident st in
      Expr.Col (Some q, c)
  | IDENT c ->
      advance st;
      Expr.Col (None, c)
  | _ -> fail st "expected expression"

(* --- queries --------------------------------------------------------- *)

let rec parse_query st : Sql.query =
  let body = parse_body st in
  let order_by = if eat_kw st "ORDER" then parse_order_by st else [] in
  { Sql.body; order_by }

and parse_order_by st =
  expect_kw st "BY";
  let rec keys acc =
    let e = parse_expr st in
    let dir =
      if eat_kw st "DESC" then Sql.Desc
      else (
        ignore (eat_kw st "ASC");
        Sql.Asc)
    in
    let acc = (e, dir) :: acc in
    if peek st = COMMA then (
      advance st;
      keys acc)
    else List.rev acc
  in
  keys []

and parse_body st : Sql.body =
  let left = parse_body_term st in
  let rec unions left =
    if is_kw st "UNION" then (
      advance st;
      expect_kw st "ALL";
      let right = parse_body_term st in
      unions (Sql.Union_all (left, right)))
    else left
  in
  unions left

and parse_body_term st : Sql.body =
  if peek st = LPAREN then (
    advance st;
    let b = parse_body st in
    expect st RPAREN;
    b)
  else Sql.Select (parse_select st)

and parse_select st : Sql.select =
  expect_kw st "SELECT";
  let items = parse_items st in
  let from = if eat_kw st "FROM" then parse_from_list st else [] in
  let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
  { Sql.items; from; where }

and parse_items st =
  let rec go acc =
    let e = parse_expr st in
    let alias =
      if eat_kw st "AS" then ident st
      else
        match e with
        | Expr.Col (_, c) -> c
        | _ -> fail st "select item needs AS alias"
    in
    let acc = { Sql.expr = e; alias } :: acc in
    if peek st = COMMA then (
      advance st;
      go acc)
    else List.rev acc
  in
  go []

and parse_from_list st =
  let rec go acc =
    let r = parse_table_ref st in
    let acc = r :: acc in
    if peek st = COMMA then (
      advance st;
      go acc)
    else List.rev acc
  in
  go []

and parse_table_ref st =
  let left = parse_from_primary st in
  let rec joins left =
    if is_kw st "LEFT" then (
      advance st;
      ignore (eat_kw st "OUTER");
      expect_kw st "JOIN";
      let right = parse_from_primary st in
      expect_kw st "ON";
      let on = parse_expr st in
      joins (Sql.Join { left; kind = Sql.Left_outer; right; on }))
    else if is_kw st "INNER" || is_kw st "JOIN" then (
      ignore (eat_kw st "INNER");
      expect_kw st "JOIN";
      let right = parse_from_primary st in
      expect_kw st "ON";
      let on = parse_expr st in
      joins (Sql.Join { left; kind = Sql.Inner; right; on }))
    else left
  in
  joins left

and parse_from_primary st =
  match peek st with
  | LPAREN ->
      advance st;
      if is_kw st "SELECT" || peek st = LPAREN then (
        (* Could be a derived table (query) or a parenthesized join whose
           first element is itself parenthesized; try query first, fall
           back to table_ref. *)
        let saved = st.pos in
        match parse_query_in_parens st with
        | Some q ->
            expect_kw st "AS";
            let alias = ident st in
            Sql.Derived { query = q; alias }
        | None ->
            st.pos <- saved;
            let r = parse_table_ref st in
            expect st RPAREN;
            r)
      else
        let r = parse_table_ref st in
        expect st RPAREN;
        r
  | IDENT s when not (reserved_here s) ->
      advance st;
      let alias = if eat_kw st "AS" then ident st else s in
      Sql.Table { name = s; alias }
  | _ -> fail st "expected table reference"

and parse_query_in_parens st : Sql.query option =
  try
    let q = parse_query st in
    if peek st = RPAREN then (
      advance st;
      (* A derived table must be followed by AS; a parenthesized UNION
         body used directly as a term is handled by the caller. *)
      if is_kw st "AS" then Some q else None)
    else None
  with Parse_error _ -> None

let parse (text : string) : Sql.query =
  let toks = tokenize text in
  let st = { toks; pos = 0 } in
  let q = parse_query st in
  if peek st <> EOF then fail st "trailing input";
  q
