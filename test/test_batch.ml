(* The executor's batches: unit laws for Batch's selection vectors, the
   batch-to-cursor adapter, cursor resource release, compile ≡ eval
   equivalence over random expressions, and the join predicate ≡ ON on
   the concatenated row.  Operators crossing chunk
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
  R.Batch.push b ~bytes:0 (row 4 5 6);
  Alcotest.(check int) "two rows" 2 (R.Batch.length b);
  Alcotest.(check bool) "not full" false (R.Batch.is_full b);
  Alcotest.(check bool) "get 0" true (R.Batch.get b 0 = row 1 2 3);
  Alcotest.(check bool) "get 1" true (R.Batch.get b 1 = row 4 5 6);
  Alcotest.(check int) "bytes 0" 10 (R.Batch.bytes_at b 0);
  Alcotest.(check int) "bytes 1 defaults to 0" 0 (R.Batch.bytes_at b 1);
  R.Batch.push b ~bytes:0 (row 7 8 9);
  R.Batch.push b ~bytes:0 (row 10 11 12);
  Alcotest.(check bool) "full" true (R.Batch.is_full b);
  Alcotest.check_raises "push past capacity"
    (Invalid_argument "Batch.push: batch is full") (fun () ->
      R.Batch.push b ~bytes:0 (row 0 0 0))

let test_keep () =
  let b = R.Batch.create ~size:8 () in
  for i = 1 to 6 do
    R.Batch.push b ~bytes:i (row i i i)
  done;
  let f = R.Batch.filter (fun t -> t.(0) <> v 3) b in
  Alcotest.(check int) "length respects selection" 5 (R.Batch.length f);
  Alcotest.(check bool) "row 3 skipped" true (R.Batch.get f 2 = row 4 4 4);
  Alcotest.(check int) "bytes follow selection" 4 (R.Batch.bytes_at f 2);
  (* the input is left as it was: a batch may feed several consumers *)
  Alcotest.(check int) "input keeps its rows" 6 (R.Batch.length b);
  Alcotest.(check bool) "input rows unchanged" true
    (R.Batch.to_list b = List.init 6 (fun i -> row (i + 1) (i + 1) (i + 1)));
  (* composition: the second filter only sees the first's survivors *)
  let seen = ref [] in
  let f2 =
    R.Batch.filter
      (fun t ->
        seen := t.(0) :: !seen;
        t.(0) < v 5)
      f
  in
  Alcotest.(check int) "refined" 3 (R.Batch.length f2);
  Alcotest.(check bool) "second filter re-tested only live rows" true
    (List.rev !seen = [ v 1; v 2; v 4; v 5; v 6 ]);
  Alcotest.(check bool) "to_list in order" true
    (R.Batch.to_list f2 = [ row 1 1 1; row 2 2 2; row 4 4 4 ]);
  Alcotest.(check int) "first filter unchanged" 5 (R.Batch.length f);
  let pairs = ref [] in
  R.Batch.iter (fun t bytes -> pairs := (bytes, t) :: !pairs) f2;
  Alcotest.(check bool) "iter carries bytes" true
    (List.rev !pairs = [ (1, row 1 1 1); (2, row 2 2 2); (4, row 4 4 4) ]);
  Alcotest.check_raises "push after filter"
    (Invalid_argument "Batch.push: batch has a selection vector") (fun () ->
      R.Batch.push f2 ~bytes:0 (row 0 0 0))

let test_keep_all_and_none () =
  let b = R.Batch.create ~size:4 () in
  R.Batch.push b ~bytes:0 (row 1 1 1);
  R.Batch.push b ~bytes:0 (row 2 2 2);
  let all = R.Batch.filter (fun _ -> true) b in
  Alcotest.(check int) "keep all" 2 (R.Batch.length all);
  let none = R.Batch.filter (fun _ -> false) all in
  Alcotest.(check int) "then none" 0 (R.Batch.length none);
  Alcotest.(check bool) "to_list empty" true (R.Batch.to_list none = []);
  Alcotest.(check int) "keep all still has both" 2 (R.Batch.length all)

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
  let batches =
    List.mapi
      (fun i b -> if i = 1 then R.Batch.filter (fun t -> t.(0) <> v 4) b else b)
      batches
  in
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
  (* A spool-backed source whose pull raises part-way (its file cut
     short), re-spooled: both the partial output file and the source's
     backing file must be released. *)
  let rows = List.init 50 (fun i -> row i i i) in
  let source = R.Cursor.spool (R.Cursor.of_list [| "a"; "b"; "c" |] rows) in
  List.iter
    (fun f ->
      let path = Filename.concat (Filename.get_temp_dir_name ()) f in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc)
    (Matrix.spool_files ());
  (match R.Cursor.spool source with
  | _ -> Alcotest.fail "a cut-short spool file read back whole"
  | exception (End_of_file | Failure _) -> ());
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

(* --- the join predicate ≡ ON on the concatenation ---------------------- *)

(* A joined row of [join_width] columns, split at a random point; values
   include NULLs and integral floats equal to ints.  Column leaves and
   column-vs-column and column-vs-literal comparisons are drawn often,
   so one-sided subtrees
   of either side, cross-side comparisons and operands reading both
   sides (arithmetic over columns of both) all occur. *)
let join_width = 4

let gen_join_resolved =
  let open QCheck.Gen in
  let col = map (fun i -> R.Expr.R_col i) (int_range 0 (join_width - 1)) in
  let op = oneofl R.Expr.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (3, col);
               (1, map (fun v -> R.Expr.R_lit v) gen_value);
               (3, map3 (fun op a b -> R.Expr.R_cmp (op, a, b)) op col col);
               ( 2,
                 map3
                   (fun op a v -> R.Expr.R_cmp (op, a, R_lit v))
                   op col gen_value );
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               (2, map3 (fun op a b -> R.Expr.R_cmp (op, a, b)) op sub sub);
               ( 1,
                 map3
                   (fun op a b -> R.Expr.R_arith (op, a, b))
                   (oneofl R.Expr.[ Add; Sub; Mul; Div ])
                   sub sub );
               (2, map2 (fun a b -> R.Expr.R_and (a, b)) sub sub);
               (2, map2 (fun a b -> R.Expr.R_or (a, b)) sub sub);
               (1, map (fun e -> R.Expr.R_not e) sub);
               (1, map (fun e -> R.Expr.R_is_null e) sub);
               (1, map (fun e -> R.Expr.R_is_not_null e) sub);
             ])

let gen_join_case =
  QCheck.Gen.(
    map2
      (fun e (split, row) ->
        (e, split, Array.sub row 0 split, Array.sub row split (join_width - split)))
      gen_join_resolved
      (pair (int_range 0 join_width)
         (map Array.of_list (list_repeat join_width gen_value))))

(* The sides an expression reads (bit 1 left, bit 2 right), and the
   shapes of the compiler's cases it contains. *)
let rec sides split = function
  | R.Expr.R_col i -> if i < split then 1 else 2
  | R_lit _ -> 0
  | R_cmp (_, a, b) | R_arith (_, a, b) | R_and (a, b) | R_or (a, b) ->
      sides split a lor sides split b
  | R_not e | R_is_null e | R_is_not_null e -> sides split e

let rec shapes split e =
  let here =
    match (sides split e, e) with
    | 1, (R.Expr.R_cmp _ | R_and _ | R_or _ | R_not _) -> [ `Left_only ]
    | 2, (R_cmp _ | R_and _ | R_or _ | R_not _) -> [ `Right_only ]
    | 3, R_cmp (_, a, b) ->
        `Cross_cmp
        :: (if sides split a = 3 || sides split b = 3 then [ `Both_operand ]
            else [])
    | _ -> []
  in
  let kids =
    match e with
    | R.Expr.R_col _ | R_lit _ -> []
    | R_cmp (_, a, b) | R_arith (_, a, b) | R_and (a, b) | R_or (a, b) ->
        shapes split a @ shapes split b
    | R_not a | R_is_null a | R_is_not_null a -> shapes split a
  in
  here @ kids

(* Column [i] prints as [c<i>]. *)
let rec unresolve = function
  | R.Expr.R_col i -> R.Expr.Col (None, Printf.sprintf "c%d" i)
  | R_lit v -> Lit v
  | R_cmp (op, a, b) -> Cmp (op, unresolve a, unresolve b)
  | R_arith (op, a, b) -> Arith (op, unresolve a, unresolve b)
  | R_and (a, b) -> And (unresolve a, unresolve b)
  | R_or (a, b) -> Or (unresolve a, unresolve b)
  | R_not a -> Not (unresolve a)
  | R_is_null a -> Is_null (unresolve a)
  | R_is_not_null a -> Is_not_null (unresolve a)

let print_join_case (e, split, l, r) =
  let row t = String.concat ", " (Array.to_list (Array.map V.to_sql t)) in
  Printf.sprintf "ON %s, split %d, left (%s), right (%s)"
    (R.Expr.to_sql (unresolve e)) split (row l) (row r)

let prop_join_pred_eq_concat =
  QCheck.Test.make
    ~name:"compile_join_pred ~split e l r ≡ compile_pred e (concat l r)"
    ~count:2000 (QCheck.make ~print:print_join_case gen_join_case)
    (fun (e, split, l, r) ->
      R.Expr.compile_join_pred ~split e l r
      = R.Expr.compile_pred e (R.Tuple.concat l r))

let prop_join_value_eq_concat =
  QCheck.Test.make ~name:"compile_join ~split e l r ≡ compile e (concat l r)"
    ~count:2000 (QCheck.make ~print:print_join_case gen_join_case)
    (fun (e, split, l, r) ->
      R.Expr.compile_join ~split e l r = R.Expr.compile e (R.Tuple.concat l r))

(* The properties above are only as strong as their generator: it must reach
   every case of the join-predicate compiler. *)
let test_join_pred_generator_coverage () =
  let rand = Random.State.make [| 21 |] in
  let seen =
    List.concat
      (List.init 500 (fun _ ->
           let e, split, _, _ = gen_join_case rand in
           shapes split e))
  in
  List.iter
    (fun (shape, name) ->
      Alcotest.(check bool) name true (List.mem shape seen))
    [
      (`Left_only, "left-only subtree");
      (`Right_only, "right-only subtree");
      (`Cross_cmp, "cross-side comparison");
      (`Both_operand, "operand reading both sides");
    ]

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
    Alcotest.test_case "spool releases all files when its source raises" `Quick
      test_spool_closes_source_on_raise;
    Alcotest.test_case "empty spool removes its file at end of stream" `Quick
      test_empty_spool_removed;
    Alcotest.test_case "join-predicate generator reaches every case" `Quick
      test_join_pred_generator_coverage;
  ]

let props =
  [
    prop_compile_eq_eval;
    prop_compile_pred_eq_eval_pred;
    prop_join_pred_eq_concat;
    prop_join_value_eq_concat;
  ]
