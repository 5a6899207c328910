(* Datalog substrate: rules, naive evaluation, the C1 FD closure and
   the C2 chase. *)

open Datalog
module R = Relational

let i n = R.Value.Int n

(* Small schema — keys starred: Emp(id., name, dept), Dept(did., dname),
   Proj(pid., did). *)
let mkdb () =
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "Emp" ~key:[ "id" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "dept" ]; ref_table = "Dept"; ref_cols = [ "did" ] } ]
       [ R.Schema.column "id" R.Value.TInt;
         R.Schema.column "name" R.Value.TString;
         R.Schema.column "dept" R.Value.TInt ]);
  R.Database.add_table db
    (R.Schema.table "Dept" ~key:[ "did" ]
       [ R.Schema.column "did" R.Value.TInt; R.Schema.column "dname" R.Value.TString ]);
  R.Database.add_table db
    (R.Schema.table "Proj" ~key:[ "pid" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "did" ]; ref_table = "Dept"; ref_cols = [ "did" ] } ]
       [ R.Schema.column "pid" R.Value.TInt; R.Schema.column "did" R.Value.TInt ]);
  R.Database.load db "Emp"
    [ [| i 1; R.Value.String "ann"; i 10 |];
      [| i 2; R.Value.String "bob"; i 10 |];
      [| i 3; R.Value.String "cyd"; i 20 |] ];
  R.Database.load db "Dept"
    [ [| i 10; R.Value.String "eng" |]; [| i 20; R.Value.String "ops" |];
      [| i 30; R.Value.String "idle" |] ];
  R.Database.load db "Proj" [ [| i 100; i 10 |]; [| i 101; i 10 |] ];
  db

let schema_of db name = R.Database.schema db name

let v x = Rule.Var x
let w = Rule.Wild

let emp_dept_rule =
  Rule.make ~head_name:"Q" ~head_vars:[ "id"; "dname" ]
    [ Rule.atom "Emp" [ v "id"; w; v "d" ]; Rule.atom "Dept" [ v "d"; v "dname" ] ]

let test_rule_printing () =
  Alcotest.(check string) "render"
    "Q(id, dname) :- Emp(id, _, d), Dept(d, dname)"
    (Rule.to_string emp_dept_rule)

let test_rule_safety () =
  Alcotest.(check bool) "safe" true (Rule.is_safe emp_dept_rule);
  let unsafe = Rule.make ~head_name:"U" ~head_vars:[ "zzz" ] [ Rule.atom "Dept" [ v "d"; w ] ] in
  Alcotest.(check bool) "unsafe" false (Rule.is_safe unsafe)

let test_eval_join () =
  let db = mkdb () in
  let r = Eval.run db emp_dept_rule in
  Alcotest.(check int) "three employees" 3 (R.Relation.cardinality r);
  Alcotest.(check bool) "ann in eng" true
    (List.exists
       (fun t -> R.Value.equal t.(0) (i 1) && R.Value.equal t.(1) (R.Value.String "eng"))
       (R.Relation.rows r))

let test_eval_set_semantics () =
  let db = mkdb () in
  (* projecting Emp onto dept yields distinct values *)
  let r =
    Eval.run db
      (Rule.make ~head_name:"D" ~head_vars:[ "d" ] [ Rule.atom "Emp" [ w; w; v "d" ] ])
  in
  Alcotest.(check int) "two departments" 2 (R.Relation.cardinality r)

let test_eval_constants_and_filters () =
  let db = mkdb () in
  let r =
    Eval.run db
      (Rule.make ~head_name:"F" ~head_vars:[ "id" ]
         ~filters:[ Rule.filter R.Expr.Ge (v "id") (Rule.Const (i 2)) ]
         [ Rule.atom "Emp" [ v "id"; w; Rule.Const (i 10) ] ])
  in
  Alcotest.(check int) "id>=2 in dept 10" 1 (R.Relation.cardinality r)

let test_eval_rejects_unsafe () =
  let db = mkdb () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.run db (Rule.make ~head_name:"U" ~head_vars:[ "x" ]
                              [ Rule.atom "Dept" [ v "d"; w ] ]));
       false
     with Invalid_argument _ -> true)

let test_eval_rejects_bad_arity () =
  let db = mkdb () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.run db (Rule.make ~head_name:"B" ~head_vars:[ "d" ]
                              [ Rule.atom "Dept" [ v "d" ] ]));
       false
     with Invalid_argument _ -> true)

(* --- FD reasoning ------------------------------------------------------ *)

let test_fd_key_determines_atom () =
  let db = mkdb () in
  Alcotest.(check bool) "id -> dname" true
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:emp_dept_rule
       [ "id" ] [ "dname" ]);
  Alcotest.(check bool) "dname does not determine id" false
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:emp_dept_rule
       [ "dname" ] [ "id" ])

let test_fd_closure_transitive () =
  let db = mkdb () in
  (* p -> d by Proj's key, d -> dname by Dept's: the closure chains them *)
  let r =
    Rule.make ~head_name:"T" ~head_vars:[ "p"; "dname" ]
      [ Rule.atom "Proj" [ v "p"; v "d" ]; Rule.atom "Dept" [ v "d"; v "dname" ] ]
  in
  Alcotest.(check bool) "p -> dname" true
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:r [ "p" ] [ "dname" ]);
  Alcotest.(check bool) "dname does not -> p" false
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:r [ "dname" ] [ "p" ])

let test_fd_constant_binding () =
  let db = mkdb () in
  let r =
    Rule.make ~head_name:"C" ~head_vars:[ "id"; "d" ]
      ~filters:[ Rule.filter R.Expr.Eq (v "d") (Rule.Const (i 10)) ]
      [ Rule.atom "Emp" [ v "id"; w; v "d" ] ]
  in
  (* d is bound by a constant: determined by the empty set *)
  Alcotest.(check bool) "{} -> d" true
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:r [] [ "d" ])

let test_fd_equality_filter () =
  let db = mkdb () in
  let r =
    Rule.make ~head_name:"E" ~head_vars:[ "a"; "b" ]
      ~filters:[ Rule.filter R.Expr.Eq (v "a") (v "b") ]
      [ Rule.atom "Emp" [ v "a"; w; w ]; Rule.atom "Emp" [ v "b"; w; w ] ]
  in
  Alcotest.(check bool) "a -> b via equality" true
    (Fd.functionally_determines ~schema_of:(schema_of db) ~child:r [ "a" ] [ "b" ])

(* --- C2 chase ------------------------------------------------------------ *)

let test_always_extends_fk_chain () =
  let db = mkdb () in
  let parent =
    Rule.make ~head_name:"P" ~head_vars:[ "id" ] [ Rule.atom "Emp" [ v "id"; w; v "d" ] ]
  in
  let child =
    Rule.make ~head_name:"C" ~head_vars:[ "id"; "dname" ]
      [ Rule.atom "Emp" [ v "id"; w; v "d" ]; Rule.atom "Dept" [ v "d"; v "dname" ] ]
  in
  (* Emp.dept is a NOT NULL FK onto Dept's key: every employee extends *)
  Alcotest.(check bool) "chase succeeds" true
    (Contain.always_extends ~schema_of:(schema_of db)
       ~inclusions:(R.Database.inclusions db) ~parent ~child)

let test_always_extends_reverse_fails () =
  let db = mkdb () in
  let parent =
    Rule.make ~head_name:"P" ~head_vars:[ "d" ] [ Rule.atom "Dept" [ v "d"; w ] ]
  in
  let child =
    Rule.make ~head_name:"C" ~head_vars:[ "d"; "id" ]
      [ Rule.atom "Dept" [ v "d"; w ]; Rule.atom "Emp" [ v "id"; w; v "d" ] ]
  in
  (* departments may have no employees: no FK from Dept to Emp *)
  Alcotest.(check bool) "chase fails" false
    (Contain.always_extends ~schema_of:(schema_of db)
       ~inclusions:(R.Database.inclusions db) ~parent ~child)

let test_always_extends_with_declared_inclusion () =
  let db = mkdb () in
  R.Database.declare_inclusion db
    { R.Schema.inc_table = "Dept"; inc_cols = [ "did" ]; inc_ref_table = "Emp";
      inc_ref_cols = [ "dept" ] };
  let parent =
    Rule.make ~head_name:"P" ~head_vars:[ "d" ] [ Rule.atom "Dept" [ v "d"; w ] ]
  in
  let child =
    Rule.make ~head_name:"C" ~head_vars:[ "d"; "id" ]
      [ Rule.atom "Dept" [ v "d"; w ]; Rule.atom "Emp" [ v "id"; w; v "d" ] ]
  in
  Alcotest.(check bool) "declared total participation chases" true
    (Contain.always_extends ~schema_of:(schema_of db)
       ~inclusions:(R.Database.inclusions db) ~parent ~child)

let test_always_extends_equal_bodies () =
  let db = mkdb () in
  Alcotest.(check bool) "same body trivially extends" true
    (Contain.always_extends ~schema_of:(schema_of db) ~inclusions:[]
       ~parent:emp_dept_rule ~child:emp_dept_rule)

let test_always_extends_extra_filter_blocks () =
  let db = mkdb () in
  let child =
    { emp_dept_rule with
      Rule.filters = [ Rule.filter R.Expr.Gt (v "id") (Rule.Const (i 1)) ] }
  in
  Alcotest.(check bool) "extra filter cannot be guaranteed" false
    (Contain.always_extends ~schema_of:(schema_of db) ~inclusions:[]
       ~parent:emp_dept_rule ~child)

let test_always_extends_two_step_chain () =
  let db = mkdb () in
  (* Proj -> Dept via FK, then nothing further needed *)
  let parent =
    Rule.make ~head_name:"P" ~head_vars:[ "p" ] [ Rule.atom "Proj" [ v "p"; v "d" ] ]
  in
  let child =
    Rule.make ~head_name:"C" ~head_vars:[ "p"; "dname" ]
      [ Rule.atom "Proj" [ v "p"; v "d" ]; Rule.atom "Dept" [ v "d"; v "dname" ] ]
  in
  Alcotest.(check bool) "chases through FK" true
    (Contain.always_extends ~schema_of:(schema_of db) ~inclusions:[] ~parent ~child)

let test_always_extends_composite_fk () =
  (* composite-key FK: LineItem(orderkey,lno) -> PartSupp(partkey,suppkey) *)
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "PS" ~key:[ "pk"; "sk" ]
       [ R.Schema.column "pk" R.Value.TInt; R.Schema.column "sk" R.Value.TInt ]);
  R.Database.add_table db
    (R.Schema.table "LI" ~key:[ "li" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "pk"; "sk" ]; ref_table = "PS";
             ref_cols = [ "pk"; "sk" ] } ]
       [ R.Schema.column "li" R.Value.TInt; R.Schema.column "pk" R.Value.TInt;
         R.Schema.column "sk" R.Value.TInt ]);
  let parent =
    Rule.make ~head_name:"P" ~head_vars:[ "li" ]
      [ Rule.atom "LI" [ v "li"; v "pk"; v "sk" ] ]
  in
  let child =
    Rule.make ~head_name:"C" ~head_vars:[ "li" ]
      [ Rule.atom "LI" [ v "li"; v "pk"; v "sk" ];
        Rule.atom "PS" [ v "pk"; v "sk" ] ]
  in
  Alcotest.(check bool) "composite chase" true
    (Contain.always_extends ~schema_of:(fun n -> R.Database.schema db n)
       ~inclusions:[] ~parent ~child);
  (* partial match (only pk shared) must NOT chase *)
  let child_bad =
    Rule.make ~head_name:"C" ~head_vars:[ "li" ]
      [ Rule.atom "LI" [ v "li"; v "pk"; v "sk" ];
        Rule.atom "PS" [ v "pk"; v "other" ] ]
  in
  Alcotest.(check bool) "partial key no chase" false
    (Contain.always_extends ~schema_of:(fun n -> R.Database.schema db n)
       ~inclusions:[] ~parent ~child:child_bad)

let suite =
  [
    Alcotest.test_case "rule printing" `Quick test_rule_printing;
    Alcotest.test_case "C2: composite FK" `Quick test_always_extends_composite_fk;
    Alcotest.test_case "rule safety" `Quick test_rule_safety;
    Alcotest.test_case "eval: join" `Quick test_eval_join;
    Alcotest.test_case "eval: set semantics" `Quick test_eval_set_semantics;
    Alcotest.test_case "eval: constants and filters" `Quick test_eval_constants_and_filters;
    Alcotest.test_case "eval: rejects unsafe" `Quick test_eval_rejects_unsafe;
    Alcotest.test_case "eval: rejects bad arity" `Quick test_eval_rejects_bad_arity;
    Alcotest.test_case "fd: key determines atom" `Quick test_fd_key_determines_atom;
    Alcotest.test_case "fd: transitive closure" `Quick test_fd_closure_transitive;
    Alcotest.test_case "fd: constant binding" `Quick test_fd_constant_binding;
    Alcotest.test_case "fd: equality filter" `Quick test_fd_equality_filter;
    Alcotest.test_case "C2: FK chase" `Quick test_always_extends_fk_chain;
    Alcotest.test_case "C2: reverse fails" `Quick test_always_extends_reverse_fails;
    Alcotest.test_case "C2: declared inclusion" `Quick test_always_extends_with_declared_inclusion;
    Alcotest.test_case "C2: equal bodies" `Quick test_always_extends_equal_bodies;
    Alcotest.test_case "C2: extra filter blocks" `Quick test_always_extends_extra_filter_blocks;
    Alcotest.test_case "C2: two-step chain" `Quick test_always_extends_two_step_chain;
  ]
