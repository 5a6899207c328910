(* TPC-H generator: determinism, integrity, the distribution properties
   the experiments rely on, plus the PRNG and transfer model. *)

open Relational

let test_rng_deterministic () =
  let a = Tpch.Rng.create 7L and b = Tpch.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Tpch.Rng.float a) (Tpch.Rng.float b)
  done

let test_rng_bounds () =
  let r = Tpch.Rng.create 1L in
  for _ = 1 to 1000 do
    let x = Tpch.Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10);
    let y = Tpch.Rng.range r 5 7 in
    Alcotest.(check bool) "in [5,7]" true (y >= 5 && y <= 7);
    let f = Tpch.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let root = Tpch.Rng.create 7L in
  let a = Tpch.Rng.split root "a" and b = Tpch.Rng.split root "b" in
  Alcotest.(check bool) "labels differ" true
    (Tpch.Rng.float a <> Tpch.Rng.float b)

let test_rng_rejects_bad_bounds () =
  let r = Tpch.Rng.create 1L in
  Alcotest.(check bool) "int 0" true
    (try ignore (Tpch.Rng.int r 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "range inverted" true
    (try ignore (Tpch.Rng.range r 3 2); false with Invalid_argument _ -> true)

(* Whether table [name] holds the same rows, in the same order, in
   [a] and [b]. *)
let same_rows a b name =
  let x = Database.raw_data a name and y = Database.raw_data b name in
  Array.length x = Array.length y && Array.for_all2 Tuple.equal x y

let test_generator_deterministic () =
  let a = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let b = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " identical") true
        (same_rows a b name))
    (Database.table_names a)

let test_generator_seed_changes_data () =
  let a = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let b = Tpch.Gen.generate (Tpch.Gen.config ~seed:43L 0.2) in
  Alcotest.(check bool) "different seed, different suppliers" false
    (same_rows a b "Supplier")

let test_generator_integrity () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.5) in
  Alcotest.(check (list string)) "no violations" [] (Database.check_integrity db)

let test_generator_scale_monotone () =
  let small = Tpch.Gen.generate (Tpch.Gen.config 0.2) in
  let large = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  Alcotest.(check bool) "more rows at higher scale" true
    (Database.total_rows large > Database.total_rows small)

let test_suppliers_without_parts_exist () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let suppliers = Database.raw_data db "Supplier" in
  let partsupp = Database.raw_data db "PartSupp" in
  let supplying = Hashtbl.create 64 in
  Array.iter (fun row -> Hashtbl.replace supplying row.(1) ()) partsupp;
  let without =
    Array.to_list suppliers
    |> List.filter (fun row -> not (Hashtbl.mem supplying row.(0)))
  in
  Alcotest.(check bool) "some suppliers supply nothing" true (List.length without > 0)

let test_parts_without_orders_exist () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let partsupp = Database.raw_data db "PartSupp" in
  let lineitem = Database.raw_data db "LineItem" in
  let ordered = Hashtbl.create 64 in
  Array.iter
    (fun row -> Hashtbl.replace ordered (row.(1), row.(2)) ())
    lineitem (* (partkey, suppkey) *);
  let unordered =
    Array.to_list partsupp
    |> List.filter (fun row -> not (Hashtbl.mem ordered (row.(0), row.(1))))
  in
  Alcotest.(check bool) "some supplied parts unordered" true (List.length unordered > 0)

let test_every_order_has_lineitems () =
  (* declared inclusion Orders[orderkey] ⊆ LineItem[orderkey] must hold *)
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.5) in
  List.iter
    (fun inc ->
      Alcotest.(check bool) "declared inclusion holds" true
        (Database.check_inclusion db inc))
    (Database.inclusions db)

let test_figure8_database () =
  let db = Tpch.Gen.figure8_database () in
  Alcotest.(check int) "3 suppliers" 3 (Database.row_count db "Supplier");
  Alcotest.(check int) "3 partsupp" 3 (Database.row_count db "PartSupp");
  Alcotest.(check (list string)) "integrity" [] (Database.check_integrity db)

(* NaN passes a [scale <= 0.0] check, and an infinite scale makes no
   sizes: both must be rejected too. *)
let test_config_validation () =
  List.iter
    (fun scale ->
      Alcotest.(check bool) (Printf.sprintf "scale %g rejected" scale) true
        (try ignore (Tpch.Gen.config scale); false
         with Invalid_argument _ -> true))
    [ 0.0; Float.nan; Float.infinity ]

let test_transfer_model () =
  let ms rows =
    Transfer.stream_ms ~tuples:(List.length rows)
      ~bytes:(List.fold_left (fun acc t -> acc + Tuple.wire_size t) 0 rows)
  in
  let narrow = [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  let wide =
    [ [| Value.Int 1; Value.String (String.make 100 'x') |];
      [| Value.Int 2; Value.String (String.make 100 'y') |] ]
  in
  Alcotest.(check bool) "wider costs more" true (ms wide > ms narrow);
  (* an empty stream costs exactly the per-stream setup *)
  let setup = ms [] in
  Alcotest.(check (float 1e-9)) "two streams cost stream overhead"
    (ms (narrow @ narrow) +. setup)
    (2.0 *. ms narrow);
  Alcotest.(check bool) "setup is positive" true (setup > 0.0)

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split streams" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: rejects bad bounds" `Quick test_rng_rejects_bad_bounds;
    Alcotest.test_case "generator: deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator: seed sensitivity" `Quick test_generator_seed_changes_data;
    Alcotest.test_case "generator: referential integrity" `Quick test_generator_integrity;
    Alcotest.test_case "generator: scale monotone" `Quick test_generator_scale_monotone;
    Alcotest.test_case "suppliers without parts" `Quick test_suppliers_without_parts_exist;
    Alcotest.test_case "supplied parts without orders" `Quick test_parts_without_orders_exist;
    Alcotest.test_case "declared inclusions hold" `Quick test_every_order_has_lineitems;
    Alcotest.test_case "figure 8 instance" `Quick test_figure8_database;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "transfer model" `Quick test_transfer_model;
  ]
