(* Value: three-valued comparison, total order, SQL literals, wire sizes. *)

open Relational

let v =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_string v))
    Value.equal

let test_total_order_null_first () =
  Alcotest.(check bool) "null < int" true (Value.compare_total Value.Null (Value.Int 0) < 0);
  Alcotest.(check bool) "null < negative" true
    (Value.compare_total Value.Null (Value.Int min_int) < 0);
  Alcotest.(check bool) "null < string" true
    (Value.compare_total Value.Null (Value.String "") < 0);
  Alcotest.(check bool) "null = null" true (Value.compare_total Value.Null Value.Null = 0)

let test_total_order_numeric () =
  Alcotest.(check bool) "1 < 2" true (Value.compare_total (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "int/float cross" true
    (Value.compare_total (Value.Int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "float/int cross" true
    (Value.compare_total (Value.Float 2.5) (Value.Int 2) > 0);
  Alcotest.(check bool) "int = float equal" true
    (Value.compare_total (Value.Int 2) (Value.Float 2.0) = 0);
  (* An Int is compared with a Float exactly, never rounded to one:
     beyond 2^53 two Ints can round to one Float, and equal to both it
     would make equality intransitive. *)
  let big = 1 lsl 53 in
  let cmp a b = Value.compare_total a b in
  Alcotest.(check int) "2^53 + 1 > 2^53." 1 (cmp (Value.Int (big + 1)) (Value.Float 0x1p53));
  Alcotest.(check int) "2^53. < 2^53 + 1" (-1) (cmp (Value.Float 0x1p53) (Value.Int (big + 1)));
  Alcotest.(check int) "2^53 = 2^53." 0 (cmp (Value.Int big) (Value.Float 0x1p53));
  Alcotest.(check int) "-2^53 - 1 < -2^53." (-1) (cmp (Value.Int (-big - 1)) (Value.Float (-0x1p53)));
  Alcotest.(check int) "max_int < 2^62." (-1) (cmp (Value.Int max_int) (Value.Float 0x1p62));
  Alcotest.(check int) "min_int = -2^62." 0 (cmp (Value.Int min_int) (Value.Float (-0x1p62)));
  Alcotest.(check int) "min_int > -inf" 1 (cmp (Value.Int min_int) (Value.Float Float.neg_infinity));
  Alcotest.(check int) "max_int < inf" (-1) (cmp (Value.Int max_int) (Value.Float Float.infinity));
  Alcotest.(check int) "2 < 2.5" (-1) (cmp (Value.Int 2) (Value.Float 2.5));
  Alcotest.(check int) "-2 > -2.5" 1 (cmp (Value.Int (-2)) (Value.Float (-2.5)));
  Alcotest.(check int) "0 = -0." 0 (cmp (Value.Int 0) (Value.Float (-0.0)));
  (* NaN sorts below every number, as [Float.compare] puts it *)
  Alcotest.(check int) "min_int > nan" 1 (cmp (Value.Int min_int) (Value.Float Float.nan));
  Alcotest.(check int) "nan < 0" (-1) (cmp (Value.Float Float.nan) (Value.Int 0));
  Alcotest.(check int) "nan = nan" 0 (cmp (Value.Float Float.nan) (Value.Float Float.nan))

let test_total_order_strings_dates () =
  Alcotest.(check bool) "abc < abd" true
    (Value.compare_total (Value.String "abc") (Value.String "abd") < 0);
  Alcotest.(check bool) "dates by day" true
    (Value.compare_total (Value.Date 100) (Value.Date 200) < 0)

let test_compare3_null_unknown () =
  Alcotest.(check (option int)) "null vs int" None
    (Value.compare3 Value.Null (Value.Int 1));
  Alcotest.(check (option int)) "int vs null" None
    (Value.compare3 (Value.Int 1) Value.Null);
  Alcotest.(check (option int)) "null vs null" None
    (Value.compare3 Value.Null Value.Null)

let test_compare3_values () =
  Alcotest.(check (option int)) "1 vs 1" (Some 0)
    (Value.compare3 (Value.Int 1) (Value.Int 1));
  Alcotest.(check bool) "a < b" true
    (match Value.compare3 (Value.String "a") (Value.String "b") with
    | Some c -> c < 0
    | None -> false)

let test_equal_treats_null_reflexively () =
  (* equal is the total-order equality, used for grouping; SQL predicate
     semantics live in compare3 *)
  Alcotest.(check bool) "null = null under grouping" true
    (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "distinct ints" false
    (Value.equal (Value.Int 1) (Value.Int 2))

let test_hash_consistent_with_equal () =
  let big = 1 lsl 53 in
  let pairs =
    [ (Value.Int 42, Value.Int 42); (Value.String "x", Value.String "x");
      (Value.Null, Value.Null); (Value.Bool true, Value.Bool true);
      (Value.Date 7, Value.Date 7);
      (* across numeric constructors *)
      (Value.Int 2, Value.Float 2.0); (Value.Float (-3.0), Value.Int (-3));
      (Value.Int 0, Value.Float (-0.0)); (Value.Float 0.0, Value.Float (-0.0));
      (Value.Int big, Value.Float (float_of_int big));
      (* beyond 2^53, an int and the integral float equal to it *)
      (Value.Int (big + 2), Value.Float (float_of_int (big + 2)));
      (Value.Int (1 lsl 61), Value.Float 0x1p61);
      (Value.Int min_int, Value.Float (float_of_int min_int));
      (Value.Float Float.nan, Value.Float Float.nan) ]
  in
  List.iter
    (fun (a, b) ->
      let name = Value.to_string a ^ " ~ " ^ Value.to_string b in
      Alcotest.(check bool) (name ^ ": equal") true (Value.equal a b);
      Alcotest.(check int) (name ^ ": same hash") (Value.hash a) (Value.hash b))
    pairs

let test_to_sql_round_trip_string_quoting () =
  Alcotest.(check string) "simple" "'abc'" (Value.to_sql (Value.String "abc"));
  Alcotest.(check string) "embedded quote" "'it''s'" (Value.to_sql (Value.String "it's"));
  Alcotest.(check string) "null" "NULL" (Value.to_sql Value.Null);
  Alcotest.(check string) "bool" "TRUE" (Value.to_sql (Value.Bool true))

let test_wire_sizes () =
  Alcotest.(check bool) "null cheapest" true
    (Value.wire_size Value.Null < Value.wire_size (Value.Int 0));
  Alcotest.(check int) "string scales" (2 + 5) (Value.wire_size (Value.String "hello"));
  Alcotest.(check bool) "null not free" true (Value.wire_size Value.Null > 0)

let test_type_of () =
  Alcotest.(check bool) "null has no type" true (Value.type_of Value.Null = None);
  Alcotest.(check bool) "int typed" true (Value.type_of (Value.Int 1) = Some Value.TInt);
  Alcotest.(check string) "ty name" "VARCHAR" (Value.ty_name Value.TString)

let test_testable_sanity () =
  Alcotest.check v "same value" (Value.Int 3) (Value.Int 3)

(* Hash indexes mask the low bits of [Value.hash] (and of
   [Tuple.hash_at], which folds it), so those bits must spread keys that
   differ only in high bits, or only in a second column. *)
let test_hash_low_bits_spread () =
  let slots = 1024 in
  let used keys =
    let seen = Array.make slots false in
    List.iter (fun h -> seen.(h land (slots - 1)) <- true) keys;
    Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen
  in
  let check name keys =
    (* random keys fill about 1 - 1/e of the slots; insist on half *)
    let n = used keys in
    if n < slots / 2 then
      Alcotest.failf "%s: %d keys use %d of %d slots" name (List.length keys) n slots
  in
  let ks = List.init slots Fun.id in
  check "ints 0, 2^16, 2^17, ..." (List.map (fun k -> Value.hash (Value.Int (k lsl 16))) ks);
  check "dates a year apart" (List.map (fun k -> Value.hash (Value.Date (k * 365))) ks);
  check "integral floats" (List.map (fun k -> Value.hash (Value.Float (float_of_int (k * 4096)))) ks);
  check "pairs differing in the second column"
    (List.map (fun k -> Tuple.hash_at [| 0; 1 |] [| Value.Int 7; Value.Int (k * 64) |]) ks);
  Alcotest.(check bool) "non-negative" true
    (List.for_all (fun k -> Value.hash (Value.Int (-k * 977)) >= 0) ks)

let suite =
  [
    Alcotest.test_case "total order: NULL first" `Quick test_total_order_null_first;
    Alcotest.test_case "total order: numerics" `Quick test_total_order_numeric;
    Alcotest.test_case "total order: strings and dates" `Quick test_total_order_strings_dates;
    Alcotest.test_case "compare3: NULL is unknown" `Quick test_compare3_null_unknown;
    Alcotest.test_case "compare3: values" `Quick test_compare3_values;
    Alcotest.test_case "grouping equality" `Quick test_equal_treats_null_reflexively;
    Alcotest.test_case "hash consistent with equal" `Quick test_hash_consistent_with_equal;
    Alcotest.test_case "SQL literal quoting" `Quick test_to_sql_round_trip_string_quoting;
    Alcotest.test_case "wire sizes" `Quick test_wire_sizes;
    Alcotest.test_case "type_of / ty_name" `Quick test_type_of;
    Alcotest.test_case "testable" `Quick test_testable_sanity;
    Alcotest.test_case "hash: low bits spread" `Quick test_hash_low_bits_spread;
  ]

(* property tests *)
let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.0);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.String s) (string_size (int_bound 12));
        map (fun d -> Value.Date d) (int_bound 10000);
      ])

(* Numbers drawn so that equal pairs across constructors are common:
   small ints, the integral floats equal to them (signed zero included),
   halves, NaN, and Ints and Floats a few units either side of ±2^53
   (where a float no longer holds every int) and of ±2^62 (the int
   range's ends). *)
let gen_number =
  let big = 1 lsl 53 in
  let near base = QCheck.Gen.map (fun d -> base + d) (QCheck.Gen.int_range (-2) 2) in
  let ints_and_floats g =
    QCheck.Gen.(
      oneof
        [ map (fun n -> Value.Int n) g; map (fun n -> Value.Float (float_of_int n)) g ])
  in
  QCheck.Gen.(
    oneof
      [
        ints_and_floats (int_range (-3) 3);
        return (Value.Float (-0.0));
        return (Value.Float Float.nan);
        map (fun n -> Value.Float (float_of_int n /. 2.0)) (int_range (-6) 6);
        ints_and_floats (near big);
        ints_and_floats (near (-big));
        map (fun d -> Value.Int (max_int - d)) (int_range 0 2);
        map (fun d -> Value.Int (min_int + d)) (int_range 0 2);
        (* 512 is the float spacing just below 2^62 *)
        map (fun d -> Value.Float (0x1p62 -. (512.0 *. float_of_int d))) (int_range 0 2);
        map (fun d -> Value.Float (-0x1p62 +. (512.0 *. float_of_int d))) (int_range 0 2);
      ])

let arb_value = QCheck.make ~print:Value.to_sql (QCheck.Gen.oneof [ gen_value; gen_number ])

let prop_total_order_antisym =
  QCheck.Test.make ~name:"compare_total antisymmetric" ~count:500
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      let c1 = Value.compare_total a b and c2 = Value.compare_total b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

(* Drawn from every type, weighted to the numbers, so a chain through
   one Float between two Ints near 2^53 turns up, as do chains that
   cross type ranks. *)
let prop_total_order_trans =
  let arb =
    QCheck.make ~print:Value.to_sql QCheck.Gen.(frequency [ (1, gen_value); (3, gen_number) ])
  in
  QCheck.Test.make ~name:"compare_total transitive" ~count:20000
    (QCheck.triple arb arb arb) (fun (a, b, c) ->
      let le x y = Value.compare_total x y <= 0 in
      ((not (le a b && le b c)) || le a c)
      && ((not (Value.equal a b && Value.equal b c)) || Value.equal a c))

let prop_compare3_agrees =
  QCheck.Test.make ~name:"compare3 agrees with total order on non-null" ~count:500
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      match Value.compare3 a b with
      | None -> Value.is_null a || Value.is_null b
      | Some c -> c = Value.compare_total a b)

let prop_equal_same_hash =
  QCheck.Test.make ~name:"equal ⇒ same hash" ~count:5000 (QCheck.pair arb_value arb_value)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let props =
  [ prop_total_order_antisym; prop_total_order_trans; prop_compare3_agrees;
    prop_equal_same_hash ]
