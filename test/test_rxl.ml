(* RXL: parsing, well-formedness checking, printing round trip. *)

open Silkroute
module R = Relational

let db () = Tpch.Gen.empty_database ()

let test_parse_query1 () =
  let v = Rxl_parser.parse Queries.query1_text in
  Alcotest.(check string) "root tag" "suppliers" v.Rxl.root_tag;
  Alcotest.(check int) "one top query" 1 (List.length v.Rxl.queries)

let test_parse_binding_and_conditions () =
  let v =
    Rxl_parser.parse
      {|view x { from Supplier $s, Nation $n
                 where $s.nationkey = $n.nationkey, $s.suppkey >= 3
                 construct <e>$n.name</e> }|}
  in
  match v.Rxl.queries with
  | [ q ] ->
      Alcotest.(check int) "two bindings" 2 (List.length q.Rxl.from_);
      Alcotest.(check int) "two conditions" 2 (List.length q.Rxl.where_);
      (match q.Rxl.where_ with
      | [ _; c2 ] -> Alcotest.(check bool) "ge parsed" true (c2.Rxl.op = R.Expr.Ge)
      | _ -> Alcotest.fail "conditions")
  | _ -> Alcotest.fail "expected one query"

let test_parse_nested_blocks_and_skolem () =
  let v =
    Rxl_parser.parse
      {|view x { from Supplier $s construct
          <a skolem=F1>
            'hello'
            { from Nation $n where $s.nationkey = $n.nationkey
              construct <b>$n.name</b> }
          </a> }|}
  in
  match v.Rxl.queries with
  | [ { Rxl.construct = [ Rxl.Element e ]; _ } ] ->
      Alcotest.(check (option string)) "explicit skolem" (Some "F1") e.Rxl.skolem;
      Alcotest.(check int) "text + block" 2 (List.length e.Rxl.content)
  | _ -> Alcotest.fail "shape"

let test_parse_comments_and_literals () =
  let v =
    Rxl_parser.parse
      {|view x -- a comment
        { from Supplier $s construct <e>42</e> <f>3.5</f> <g>'it''s'</g> }|}
  in
  match v.Rxl.queries with
  | [ { Rxl.construct = cs; _ } ] -> Alcotest.(check int) "three elements" 3 (List.length cs)
  | _ -> Alcotest.fail "shape"

let test_parse_errors () =
  let bad =
    [ "view x"; "view x { }"; "view x { from construct <e>1</e> }";
      "view x { from T $t construct }"; "view x { from T $t construct <a>1</b> }";
      "view x { from T $t construct <a>1</a> } trailing" ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects: " ^ text) true
        (try ignore (Rxl_parser.parse text); false
         with Rxl_parser.Parse_error _ | Rxl_lexer.Lex_error _ -> true))
    bad

let test_print_parse_round_trip () =
  List.iter
    (fun text ->
      let v = Rxl_parser.parse text in
      let v' = Rxl_parser.parse (Rxl.to_string v) in
      Alcotest.(check string) "fixpoint" (Rxl.to_string v) (Rxl.to_string v'))
    [ Queries.query1_text; Queries.query2_text; Queries.fragment_text ]

let test_check_valid_views () =
  let db = db () in
  List.iter
    (fun v -> Rxl.check db v)
    (List.map Rxl_parser.parse
       [ Queries.query1_text; Queries.query2_text; Queries.fragment_text ])

let test_check_unknown_table () =
  let v = Rxl_parser.parse "view x { from Bogus $b construct <e>$b.a</e> }" in
  Alcotest.(check bool) "rejected" true
    (try Rxl.check (db ()) v; false with Rxl.Ill_formed _ -> true)

let test_check_unknown_column () =
  let v = Rxl_parser.parse "view x { from Supplier $s construct <e>$s.bogus</e> }" in
  Alcotest.(check bool) "rejected" true
    (try Rxl.check (db ()) v; false with Rxl.Ill_formed _ -> true)

let test_check_unbound_variable () =
  let v = Rxl_parser.parse "view x { from Supplier $s construct <e>$t.name</e> }" in
  Alcotest.(check bool) "rejected" true
    (try Rxl.check (db ()) v; false with Rxl.Ill_formed _ -> true)

let test_check_shadowing () =
  let v =
    Rxl_parser.parse
      {|view x { from Supplier $s construct <a>
          { from Nation $s construct <b>$s.name</b> } </a> }|}
  in
  Alcotest.(check bool) "shadowing rejected" true
    (try Rxl.check (db ()) v; false with Rxl.Ill_formed _ -> true)

let test_check_bare_text_in_block () =
  let v =
    Rxl_parser.parse
      {|view x { from Supplier $s construct <a>
          { from Nation $n where $s.nationkey = $n.nationkey construct $n.name } </a> }|}
  in
  (* bare text produced by a block would lose its guard; must be rejected *)
  Alcotest.(check bool) "rejected" true
    (try Rxl.check (db ()) v; false with Rxl.Ill_formed _ -> true)

let test_parallel_top_queries () =
  let v =
    Rxl_parser.parse
      {|view both
        { from Supplier $s construct <supplier>$s.name</supplier> }
        { from Customer $c construct <customer>$c.name</customer> }|}
  in
  Rxl.check (db ()) v;
  Alcotest.(check int) "two parallel queries" 2 (List.length v.Rxl.queries)

let suite =
  [
    Alcotest.test_case "parse Query 1" `Quick test_parse_query1;
    Alcotest.test_case "parse bindings/conditions" `Quick test_parse_binding_and_conditions;
    Alcotest.test_case "parse nested blocks + skolem" `Quick test_parse_nested_blocks_and_skolem;
    Alcotest.test_case "parse comments and literals" `Quick test_parse_comments_and_literals;
    Alcotest.test_case "parse rejects malformed" `Quick test_parse_errors;
    Alcotest.test_case "print/parse round trip" `Quick test_print_parse_round_trip;
    Alcotest.test_case "check: paper views valid" `Quick test_check_valid_views;
    Alcotest.test_case "check: unknown table" `Quick test_check_unknown_table;
    Alcotest.test_case "check: unknown column" `Quick test_check_unknown_column;
    Alcotest.test_case "check: unbound variable" `Quick test_check_unbound_variable;
    Alcotest.test_case "check: shadowing" `Quick test_check_shadowing;
    Alcotest.test_case "check: bare text in block" `Quick test_check_bare_text_in_block;
    Alcotest.test_case "parallel top queries" `Quick test_parallel_top_queries;
  ]
