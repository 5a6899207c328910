(* SQL AST helpers, printer and parser, incl. structural round trips. *)

open Relational

let q_simple =
  Sql.select
    [ Sql.item (Expr.col ~qualifier:"s" "suppkey");
      Sql.item ~alias:"one" (Expr.int 1) ]
    [ Sql.Table { name = "Supplier"; alias = "s" } ]

let q_join =
  Sql.select
    ~where:(Some Expr.(eq (col ~qualifier:"s" "nationkey") (col ~qualifier:"n" "nationkey")))
    ~order_by:[ (Expr.col "suppkey", Sql.Asc) ]
    [ Sql.item (Expr.col ~qualifier:"s" "suppkey");
      Sql.item ~alias:"nname" (Expr.col ~qualifier:"n" "name") ]
    [ Sql.Table { name = "Supplier"; alias = "s" };
      Sql.Table { name = "Nation"; alias = "n" } ]

let q_outer =
  {
    Sql.body =
      Sql.Select
        {
          items = [ Sql.item ~alias:"k" (Expr.col ~qualifier:"b" "k") ];
          from =
            [
              Sql.Join
                {
                  left = Sql.Derived { query = q_simple; alias = "b" };
                  kind = Sql.Left_outer;
                  right =
                    Sql.Derived
                      {
                        query =
                          {
                            Sql.body =
                              Sql.Union_all
                                ( (match q_simple.Sql.body with b -> b),
                                  match q_simple.Sql.body with b -> b );
                            order_by = [];
                          };
                        alias = "q";
                      };
                  on = Expr.(eq (col ~qualifier:"b" "suppkey") (col ~qualifier:"q" "suppkey"));
                };
            ];
          where = None;
        };
    order_by = [ (Expr.col "k", Sql.Asc) ];
  }

let test_item_alias_default () =
  let it = Sql.item (Expr.col ~qualifier:"s" "name") in
  Alcotest.(check string) "defaults to column" "name" it.Sql.alias;
  Alcotest.(check bool) "complex needs alias" true
    (try
       ignore (Sql.item (Expr.int 3));
       false
     with Invalid_argument _ -> true)

let test_output_columns () =
  Alcotest.(check (list string)) "aliases" [ "suppkey"; "one" ]
    (Sql.output_columns q_simple)

let test_counters () =
  Alcotest.(check int) "no outer joins" 0 (Sql.count_outer_joins q_simple);
  Alcotest.(check int) "one outer join" 1 (Sql.count_outer_joins q_outer);
  Alcotest.(check int) "one union" 1 (Sql.count_unions q_outer)

let test_aliases () =
  match q_join.Sql.body with
  | Sql.Select s ->
      Alcotest.(check (list string)) "aliases" [ "s"; "n" ] (Sql.select_aliases s)
  | _ -> Alcotest.fail "expected select"

let round_trip q =
  let text = Sql_print.to_string q in
  let q' = Sql_parser.parse text in
  let text' = Sql_print.to_string q' in
  Alcotest.(check string) "print-parse-print fixpoint" text text'

let test_round_trip_simple () = round_trip q_simple
let test_round_trip_join () = round_trip q_join
let test_round_trip_outer () = round_trip q_outer

let test_round_trip_pretty () =
  let text = Sql_print.to_pretty_string q_outer in
  let q' = Sql_parser.parse text in
  Alcotest.(check string) "pretty parses same"
    (Sql_print.to_string q_outer) (Sql_print.to_string q')

let test_parser_literals () =
  let q = Sql_parser.parse "SELECT 1 AS a, 'it''s' AS b, NULL AS c, TRUE AS d, DATE 42 AS e, -7 AS f" in
  match q.Sql.body with
  | Sql.Select s ->
      let lits = List.map (fun (it : Sql.select_item) -> it.Sql.expr) s.Sql.items in
      Alcotest.(check int) "six items" 6 (List.length lits);
      Alcotest.(check bool) "string unescaped" true
        (List.exists (function Expr.Lit (Value.String "it's") -> true | _ -> false) lits);
      Alcotest.(check bool) "date" true
        (List.exists (function Expr.Lit (Value.Date 42) -> true | _ -> false) lits);
      Alcotest.(check bool) "negative int" true
        (List.exists (function Expr.Lit (Value.Int (-7)) -> true | _ -> false) lits)
  | _ -> Alcotest.fail "expected select"

let test_parser_case_insensitive_keywords () =
  let q = Sql_parser.parse "select x as x from T as t where (t.x >= 3) order by x desc" in
  Alcotest.(check int) "order by" 1 (List.length q.Sql.order_by);
  (match q.Sql.order_by with
  | [ (_, Sql.Desc) ] -> ()
  | _ -> Alcotest.fail "expected DESC");
  (* mixed case parses to the same AST as upper case *)
  let mixed =
    "sElEcT t.x As x , u.y aS y FrOm T as t LeFt OuTeR jOiN U As u oN ( t.x = \
     u.y ) wHeRe ( ( t.x iS nOt NuLl ) AnD ( NoT ( u.y Is nUlL ) oR tRuE ) ) \
     UnIoN aLl select 1 AS x , nULL AS y From T AS t oRdEr bY x DeSc , y aSc"
  in
  let keywords =
    [ "SELECT"; "AS"; "FROM"; "LEFT"; "OUTER"; "JOIN"; "ON"; "WHERE"; "IS";
      "NOT"; "NULL"; "AND"; "OR"; "TRUE"; "UNION"; "ALL"; "ORDER"; "BY";
      "DESC"; "ASC" ]
  in
  let upper w =
    let u = String.uppercase_ascii w in
    if List.mem u keywords then u else w
  in
  let upper = String.concat " " (List.map upper (String.split_on_char ' ' mixed)) in
  Alcotest.(check bool) "mixed case = upper case" true
    (Sql_parser.parse mixed = Sql_parser.parse upper)

let test_parser_errors () =
  let bad = [ "SELECT"; "SELECT x AS x FROM"; "SELECT x AS x FROM T WHERE";
              "SELECT x AS x FROM T trailing garbage ("; "";
              (* the dialect has no WITH clause *)
              "WITH b AS (SELECT t.x AS x FROM T AS t) SELECT b.x AS x FROM b" ] in
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects: " ^ text) true
        (try
           ignore (Sql_parser.parse text);
           false
         with Sql_parser.Parse_error _ | Sql_lexer.Lex_error _ -> true))
    bad

let test_lexer_operators () =
  let toks = Sql_lexer.tokenize "<= >= <> < > = + - * / ( ) , ." in
  Alcotest.(check int) "count incl EOF" 15 (Array.length toks)

let test_lexer_hex_float () =
  (* the printer emits lossless hex floats; the lexer must read them *)
  let f = 3.14159 in
  let toks = Sql_lexer.tokenize (Printf.sprintf "%h" f) in
  match toks.(0) with
  | Sql_lexer.FLOAT f' -> Alcotest.(check (float 0.0)) "exact" f f'
  | t -> Alcotest.fail ("expected float, got " ^ Sql_lexer.token_to_string t)

(* A numeric literal the lexer scans but cannot convert is a lex error
   at the literal's offset, not an escaping [Failure]. *)
let test_lexer_malformed_numbers () =
  List.iter
    (fun (text, at) ->
      match Sql_lexer.tokenize text with
      | _ -> Alcotest.fail ("accepted: " ^ text)
      | exception Sql_lexer.Lex_error (_, off) ->
          Alcotest.(check int) ("offset in: " ^ text) at off)
    [
      ("SELECT 4EAS x FROM T AS t", 7);
      ("SELECT 0x", 7);
      ("SELECT t.x AS x FROM T AS t WHERE (t.x = 1e+)", 41);
      ("SELECT 99999999999999999999 AS x", 7);
    ]

let suite =
  [
    Alcotest.test_case "item alias defaulting" `Quick test_item_alias_default;
    Alcotest.test_case "output columns" `Quick test_output_columns;
    Alcotest.test_case "join/union counters" `Quick test_counters;
    Alcotest.test_case "select aliases" `Quick test_aliases;
    Alcotest.test_case "round trip: simple" `Quick test_round_trip_simple;
    Alcotest.test_case "round trip: join+order" `Quick test_round_trip_join;
    Alcotest.test_case "round trip: outer join + union" `Quick test_round_trip_outer;
    Alcotest.test_case "round trip: pretty printer" `Quick test_round_trip_pretty;
    Alcotest.test_case "parser: literals" `Quick test_parser_literals;
    Alcotest.test_case "parser: keyword case" `Quick test_parser_case_insensitive_keywords;
    Alcotest.test_case "parser: rejects malformed" `Quick test_parser_errors;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer: hex floats" `Quick test_lexer_hex_float;
    Alcotest.test_case "lexer: malformed numbers" `Quick test_lexer_malformed_numbers;
  ]
