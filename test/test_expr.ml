(* Expressions: three-valued logic, resolution, analysis helpers. *)

open Relational

(* Expression builders for the cases below. *)
let col ?qualifier name = Expr.Col (qualifier, name)
let int n = Expr.Lit (Value.Int n)
let eq a b = Expr.Cmp (Expr.Eq, a, b)

let header = [ (Some "t", "a"); (Some "t", "b"); (Some "u", "a") ]

let lookup (q, c) =
  let rec go i = function
    | [] -> None
    | (q', c') :: rest ->
        if (q = q' || q = None) && c = c' then Some i else go (i + 1) rest
  in
  go 0 header

let eval e t = Expr.eval (Expr.resolve lookup e) t
let pred e t = Expr.eval_pred (Expr.resolve lookup e) t

let row a b c = [| a; b; c |]
let i n = Value.Int n

let test_column_resolution () =
  let t = row (i 1) (i 2) (i 3) in
  Alcotest.(check bool) "qualified" true
    (Value.equal (eval (col ~qualifier:"u" "a") t) (i 3));
  Alcotest.(check bool) "unqualified unique" true
    (Value.equal (eval (col "b") t) (i 2))

let test_unresolved_column () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Expr.resolve lookup (col "zz"));
       false
     with Expr.Unresolved_column "zz" -> true)

let test_comparisons () =
  let t = row (i 1) (i 2) (i 3) in
  Alcotest.(check bool) "lt" true (pred Expr.(Cmp (Lt, col "a" ~qualifier:"t", col "b")) t);
  Alcotest.(check bool) "ge false" false
    (pred Expr.(Cmp (Ge, col ~qualifier:"t" "a", col "b")) t);
  Alcotest.(check bool) "neq" true
    (pred Expr.(Cmp (Neq, col ~qualifier:"t" "a", col "b")) t)

let test_three_valued_logic () =
  let t = row Value.Null (i 2) (i 3) in
  (* NULL comparison is UNKNOWN: the predicate rejects *)
  Alcotest.(check bool) "null = x rejects" false
    (pred (eq (col ~qualifier:"t" "a") (col "b")) t);
  (* UNKNOWN OR TRUE = TRUE *)
  Alcotest.(check bool) "unknown or true" true
    (pred Expr.(Or (eq (col ~qualifier:"t" "a") (col "b"),
                    Lit (Value.Bool true))) t);
  (* UNKNOWN AND FALSE = FALSE *)
  Alcotest.(check bool) "unknown and false" false
    (pred Expr.(And (eq (col ~qualifier:"t" "a") (col "b"),
                     Lit (Value.Bool false))) t);
  (* NOT UNKNOWN = UNKNOWN *)
  Alcotest.(check bool) "not unknown rejects" false
    (pred Expr.(Not (eq (col ~qualifier:"t" "a") (col "b"))) t)

let test_is_null () =
  let t = row Value.Null (i 2) (i 3) in
  Alcotest.(check bool) "is null" true (pred Expr.(Is_null (col ~qualifier:"t" "a")) t);
  Alcotest.(check bool) "is not null" true (pred Expr.(Is_not_null (col "b")) t)

let test_arithmetic () =
  let t = row (i 10) (i 3) (i 0) in
  let v e = eval e t in
  Alcotest.(check bool) "add" true
    (Value.equal (v Expr.(Arith (Add, col ~qualifier:"t" "a", col "b"))) (i 13));
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (v Expr.(Arith (Div, col ~qualifier:"t" "a", col ~qualifier:"u" "a"))));
  Alcotest.(check bool) "null propagates" true
    (Value.is_null (v Expr.(Arith (Mul, Lit Value.Null, col "b"))));
  Alcotest.(check bool) "mixed int float" true
    (Value.equal (v Expr.(Arith (Mul, Lit (Value.Int 2), Lit (Value.Float 1.5))))
       (Value.Float 3.0));
  Alcotest.(check bool) "string concat" true
    (Value.equal (v Expr.(Arith (Add, Lit (Value.String "a"), Lit (Value.String "b"))))
       (Value.String "ab"))

let test_conjuncts_conjoin () =
  let e = Expr.(And (And (int 1, int 2), And (int 3, int 4))) in
  Alcotest.(check int) "flattens" 4 (List.length (Expr.conjuncts e));
  Alcotest.(check int) "roundtrip count" 4
    (List.length (Expr.conjuncts (Expr.conjoin (Expr.conjuncts e))));
  Alcotest.(check bool) "empty conjoin is TRUE" true
    (match Expr.conjoin [] with Expr.Lit (Value.Bool true) -> true | _ -> false)

let test_columns_and_equality_shape () =
  let e = (eq (col ~qualifier:"t" "a") (col ~qualifier:"u" "a")) in
  Alcotest.(check int) "two columns" 2 (List.length (Expr.columns e));
  Alcotest.(check bool) "recognized as column equality" true
    (Expr.as_column_equality e <> None);
  Alcotest.(check bool) "lt is not" true
    (Expr.as_column_equality Expr.(Cmp (Lt, col "a", col "b")) = None)

let test_to_sql () =
  Alcotest.(check string) "rendering" "((t.a = 1) AND (b IS NULL))"
    (Expr.to_sql Expr.(And (eq (col ~qualifier:"t" "a") (int 1), Is_null (col "b"))))

let suite =
  [
    Alcotest.test_case "column resolution" `Quick test_column_resolution;
    Alcotest.test_case "unresolved column" `Quick test_unresolved_column;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
    Alcotest.test_case "IS NULL" `Quick test_is_null;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "conjuncts/conjoin" `Quick test_conjuncts_conjoin;
    Alcotest.test_case "columns and equality shape" `Quick test_columns_and_equality_shape;
    Alcotest.test_case "to_sql" `Quick test_to_sql;
  ]

(* Property: conjoin . conjuncts preserves predicate semantics. *)
let gen_pred =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun b -> Expr.Lit (Value.Bool b)) bool;
        map2 (fun c n -> Expr.Cmp (Expr.Eq, col ~qualifier:"t" c, Expr.Lit (Value.Int n)))
          (oneofl [ "a"; "b" ]) (int_bound 3);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map2 (fun a b -> Expr.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Expr.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun a -> Expr.Not a) (go (depth - 1)));
        ]
  in
  go 3

let prop_conjuncts_semantics =
  QCheck.Test.make ~name:"conjoin(conjuncts e) ≡ e under eval" ~count:300
    (QCheck.make ~print:Expr.to_sql gen_pred) (fun e ->
      let t = row (i 1) (i 2) (i 3) in
      pred e t = pred (Expr.conjoin (Expr.conjuncts e)) t)

let props = [ prop_conjuncts_semantics ]
