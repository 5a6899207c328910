(* The executor's batches: unit laws for Batch's selection vectors, the
   batch-to-cursor adapter, cursor resource release, and compile ≡ eval
   equivalence over random expressions.  Operators crossing chunk
   boundaries are checked against the seed interpreter in
   test_executor.ml. *)

module R = Relational
module V = R.Value

let v n = V.Int n
let row a b c : R.Tuple.t = [| v a; v b; v c |]

(* --- Batch unit laws --------------------------------------------------- *)

let test_push_get () =
  let b = R.Batch.create ~size:4 () in
  Alcotest.(check int) "empty" 0 (R.Batch.length b);
  Alcotest.(check int) "capacity" 4 (R.Batch.capacity b);
  R.Batch.push b ~bytes:10 (row 1 2 3);
  R.Batch.push b (row 4 5 6);
  Alcotest.(check int) "two rows" 2 (R.Batch.length b);
  Alcotest.(check bool) "not full" false (R.Batch.is_full b);
  Alcotest.(check bool) "get 0" true (R.Batch.get b 0 = row 1 2 3);
  Alcotest.(check bool) "get 1" true (R.Batch.get b 1 = row 4 5 6);
  Alcotest.(check int) "bytes 0" 10 (R.Batch.bytes_at b 0);
  Alcotest.(check int) "bytes 1 defaults to 0" 0 (R.Batch.bytes_at b 1);
  R.Batch.push b (row 7 8 9);
  R.Batch.push b (row 10 11 12);
  Alcotest.(check bool) "full" true (R.Batch.is_full b);
  Alcotest.check_raises "push past capacity"
    (Invalid_argument "Batch.push: batch is full") (fun () ->
      R.Batch.push b (row 0 0 0))

let test_keep () =
  let b = R.Batch.create ~size:8 () in
  for i = 1 to 6 do
    R.Batch.push b ~bytes:i (row i i i)
  done;
  let survivors = R.Batch.keep (fun t -> t.(0) <> v 3) b in
  Alcotest.(check int) "keep returns survivors" 5 survivors;
  Alcotest.(check int) "length respects selection" 5 (R.Batch.length b);
  Alcotest.(check bool) "row 3 skipped" true (R.Batch.get b 2 = row 4 4 4);
  Alcotest.(check int) "bytes follow selection" 4 (R.Batch.bytes_at b 2);
  (* composition: the second keep only sees the first's survivors *)
  let seen = ref [] in
  let survivors2 =
    R.Batch.keep
      (fun t ->
        seen := t.(0) :: !seen;
        t.(0) < v 5)
      b
  in
  Alcotest.(check int) "refined" 3 survivors2;
  Alcotest.(check bool) "second keep re-tested only live rows" true
    (List.rev !seen = [ v 1; v 2; v 4; v 5; v 6 ]);
  Alcotest.(check bool) "to_list in order" true
    (R.Batch.to_list b = [ row 1 1 1; row 2 2 2; row 4 4 4 ]);
  let pairs = ref [] in
  R.Batch.iter (fun t bytes -> pairs := (bytes, t) :: !pairs) b;
  Alcotest.(check bool) "iter carries bytes" true
    (List.rev !pairs = [ (1, row 1 1 1); (2, row 2 2 2); (4, row 4 4 4) ]);
  Alcotest.check_raises "push after keep"
    (Invalid_argument "Batch.push: batch has a selection vector") (fun () ->
      R.Batch.push b (row 0 0 0))

let test_keep_all_and_none () =
  let b = R.Batch.create ~size:4 () in
  R.Batch.push b (row 1 1 1);
  R.Batch.push b (row 2 2 2);
  Alcotest.(check int) "keep all" 2 (R.Batch.keep (fun _ -> true) b);
  Alcotest.(check int) "then none" 0 (R.Batch.keep (fun _ -> false) b);
  Alcotest.(check int) "empty after" 0 (R.Batch.length b);
  Alcotest.(check bool) "to_list empty" true (R.Batch.to_list b = [])

let test_cursor_round_trip () =
  let rows = Array.init 10 (fun i -> row i i i) in
  let batches =
    List.map
      (fun (off, len) -> R.Batch.of_rows (Array.sub rows off len))
      [ (0, 3); (3, 3); (6, 3); (9, 1) ]
  in
  Alcotest.(check (list int)) "batch sizes" [ 3; 3; 3; 1 ]
    (List.map R.Batch.length batches);
  let c = R.Cursor.of_batches [| "a"; "b"; "c" |] batches in
  Alcotest.(check bool) "round trip preserves rows" true
    (R.Cursor.to_list c = Array.to_list rows);
  ignore (R.Batch.keep (fun t -> t.(0) <> v 4) (List.nth batches 1));
  let c = R.Cursor.of_batches [| "a"; "b"; "c" |] batches in
  Alcotest.(check bool) "selection vectors respected" true
    (R.Cursor.to_list c
    = List.filter (fun t -> t.(0) <> v 4) (Array.to_list rows))

(* --- leak regression: a throwing consumer must close the source ------- *)

(* The leak checks count spool files in a directory of their own, so
   files other processes create and delete meanwhile cannot skew them. *)

exception Consumer_failed

let test_iter_closes_on_raise () =
  Matrix.with_private_spool_dir @@ fun () ->
  let before = List.length (Matrix.spool_files ()) in
  let rows = List.init 50 (fun i -> row i i i) in
  let spooled = R.Cursor.spool (R.Cursor.of_list [| "a"; "b"; "c" |] rows) in
  let n = ref 0 in
  (try
     R.Cursor.iter
       (fun _ ->
         incr n;
         if !n = 5 then raise Consumer_failed)
       spooled
   with Consumer_failed -> ());
  Alcotest.(check int) "consumer saw 5 rows" 5 !n;
  Alcotest.(check int) "spool file removed on the exception path" before
    (List.length (Matrix.spool_files ()));
  Alcotest.(check bool) "cursor closed: next returns None" true
    (R.Cursor.next spooled = None)

let test_spool_closes_source_on_raise () =
  Matrix.with_private_spool_dir @@ fun () ->
  let before = List.length (Matrix.spool_files ()) in
  (* A spool-backed source re-spooled through a consumer that raises via
     on_row: both the partial output file and the source's backing file
     must be released. *)
  let rows = List.init 50 (fun i -> row i i i) in
  let source = R.Cursor.spool (R.Cursor.of_list [| "a"; "b"; "c" |] rows) in
  let n = ref 0 in
  (try
     ignore
       (R.Cursor.spool
          ~on_row:(fun _ ->
            incr n;
            if !n = 7 then raise Consumer_failed)
          source)
   with Consumer_failed -> ());
  Alcotest.(check int) "no spool files leaked" before
    (List.length (Matrix.spool_files ()))

(* Regression: a spool of no rows has no last row whose read removes the
   file; reading past its end must remove it. *)
let test_empty_spool_removed () =
  Matrix.with_private_spool_dir @@ fun () ->
  let spooled = R.Cursor.spool (R.Cursor.empty [| "a"; "b"; "c" |]) in
  Alcotest.(check int) "spooled to a file" 1
    (List.length (Matrix.spool_files ()));
  Alcotest.(check bool) "no rows" true (R.Cursor.next spooled = None);
  Alcotest.(check (list string)) "file removed at end of stream" []
    (Matrix.spool_files ())

(* --- compile ≡ eval over random expressions --------------------------- *)

let arity = 3

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun n -> V.Int n) (int_range (-5) 5);
        map (fun n -> V.Float (float_of_int n /. 2.0)) (int_range (-4) 4);
        map (fun b -> V.Bool b) bool;
        map (fun s -> V.String s) (oneofl [ ""; "a"; "bc" ]);
        map (fun d -> V.Date d) (int_range 0 3);
      ])

let gen_tuple =
  QCheck.Gen.(map Array.of_list (list_repeat arity gen_value))

let gen_resolved =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> R.Expr.R_col i) (int_range 0 (arity - 1));
               map (fun v -> R.Expr.R_lit v) gen_value;
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map3
                 (fun op a b -> R.Expr.R_cmp (op, a, b))
                 (oneofl R.Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
                 sub sub;
               map3
                 (fun op a b -> R.Expr.R_arith (op, a, b))
                 (oneofl R.Expr.[ Add; Sub; Mul; Div ])
                 sub sub;
               map2 (fun a b -> R.Expr.R_and (a, b)) sub sub;
               map2 (fun a b -> R.Expr.R_or (a, b)) sub sub;
               map (fun e -> R.Expr.R_not e) sub;
               map (fun e -> R.Expr.R_is_null e) sub;
               map (fun e -> R.Expr.R_is_not_null e) sub;
             ])

let gen_case = QCheck.Gen.pair gen_resolved gen_tuple

let print_case (_, t) =
  "tuple: " ^ String.concat ", " (Array.to_list (Array.map V.to_sql t))

let prop_compile_eq_eval =
  QCheck.Test.make ~name:"compile e ≡ eval e on random expressions"
    ~count:1000 (QCheck.make ~print:print_case gen_case) (fun (e, t) ->
      R.Expr.compile e t = R.Expr.eval e t)

let prop_compile_pred_eq_eval_pred =
  QCheck.Test.make ~name:"compile_pred e ≡ eval_pred e on random expressions"
    ~count:1000 (QCheck.make ~print:print_case gen_case) (fun (e, t) ->
      R.Expr.compile_pred e t = R.Expr.eval_pred e t)

let suite =
  [
    Alcotest.test_case "batch push/get/bytes laws" `Quick test_push_get;
    Alcotest.test_case "selection vectors refine and compose" `Quick test_keep;
    Alcotest.test_case "keep-all / keep-none edges" `Quick
      test_keep_all_and_none;
    Alcotest.test_case "cursor of_batches round trip" `Quick
      test_cursor_round_trip;
    Alcotest.test_case "iter closes a spooled cursor on consumer raise" `Quick
      test_iter_closes_on_raise;
    Alcotest.test_case "spool releases all files when on_row raises" `Quick
      test_spool_closes_source_on_raise;
    Alcotest.test_case "empty spool removes its file at end of stream" `Quick
      test_empty_spool_removed;
  ]

let props = [ prop_compile_eq_eval; prop_compile_pred_eq_eval_pred ]
