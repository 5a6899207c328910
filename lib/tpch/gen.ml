(* TPC-H-style database generator for the schema fragment of the paper's
   Fig. 1.  Ratios between tables follow TPC-H's shape (orders and
   lineitems dominate); absolute sizes are scaled by [scale] so the
   512-plan exhaustive experiment stays laptop-sized.

   Two properties the experiments depend on are guaranteed:
   - some suppliers supply no parts (so supplier->part needs an outer join),
   - some supplied parts have no pending orders (part->order likewise). *)

module R = Relational

type config = {
  scale : float;
  seed : int64;
  supplier_no_part_fraction : float;
  partsupp_no_order_fraction : float;
}

let config ?(seed = 42L) ?(supplier_no_part_fraction = 0.1)
    ?(partsupp_no_order_fraction = 0.1) scale =
  if not (Float.is_finite scale && scale > 0.0) then
    invalid_arg "Gen.config: scale must be positive and finite";
  { scale; seed; supplier_no_part_fraction; partsupp_no_order_fraction }

(* Table cardinalities at a given scale. *)
type sizes = {
  regions : int;
  nations : int;
  suppliers : int;
  parts : int;
  customers : int;
  orders : int;
}

let sizes_of cfg =
  let s = cfg.scale in
  let scaled base = max 2 (int_of_float (Float.round (float_of_int base *. s))) in
  {
    regions = min 5 (max 2 (scaled 5));
    nations = min 25 (max 3 (scaled 25));
    suppliers = scaled 50;
    parts = scaled 200;
    customers = scaled 75;
    orders = scaled 500;
  }

(* --- schema ----------------------------------------------------------- *)

let schema_tables : R.Schema.table list =
  let open R.Schema in
  let open R.Value in
  [
    table "Region" ~key:[ "regionkey" ]
      [ column "regionkey" TInt; column "name" TString ];
    table "Nation" ~key:[ "nationkey" ]
      ~foreign_keys:
        [ { fk_cols = [ "regionkey" ]; ref_table = "Region"; ref_cols = [ "regionkey" ] } ]
      [ column "nationkey" TInt; column "name" TString; column "regionkey" TInt ];
    table "Supplier" ~key:[ "suppkey" ]
      ~foreign_keys:
        [ { fk_cols = [ "nationkey" ]; ref_table = "Nation"; ref_cols = [ "nationkey" ] } ]
      [
        column "suppkey" TInt; column "name" TString; column "addr" TString;
        column "nationkey" TInt;
      ];
    table "Part" ~key:[ "partkey" ]
      [
        column "partkey" TInt; column "name" TString; column "mfgr" TString;
        column "brand" TString; column "size" TString; column "retail" TFloat;
      ];
    table "PartSupp"
      ~key:[ "partkey"; "suppkey" ]
      ~foreign_keys:
        [
          { fk_cols = [ "partkey" ]; ref_table = "Part"; ref_cols = [ "partkey" ] };
          { fk_cols = [ "suppkey" ]; ref_table = "Supplier"; ref_cols = [ "suppkey" ] };
        ]
      [ column "partkey" TInt; column "suppkey" TInt; column "availqty" TInt ];
    table "Customer" ~key:[ "custkey" ]
      ~foreign_keys:
        [ { fk_cols = [ "nationkey" ]; ref_table = "Nation"; ref_cols = [ "nationkey" ] } ]
      [
        column "custkey" TInt; column "name" TString; column "addr" TString;
        column "nationkey" TInt; column "ph" TString;
      ];
    table "Orders" ~key:[ "orderkey" ]
      ~foreign_keys:
        [ { fk_cols = [ "custkey" ]; ref_table = "Customer"; ref_cols = [ "custkey" ] } ]
      [
        column "orderkey" TInt; column "custkey" TInt; column "status" TString;
        column "price" TFloat; column "date" TDate;
      ];
    table "LineItem"
      ~key:[ "orderkey"; "lno" ]
      ~foreign_keys:
        [
          { fk_cols = [ "orderkey" ]; ref_table = "Orders"; ref_cols = [ "orderkey" ] };
          {
            fk_cols = [ "partkey"; "suppkey" ];
            ref_table = "PartSupp";
            ref_cols = [ "partkey"; "suppkey" ];
          };
        ]
      [
        column "orderkey" TInt; column "partkey" TInt; column "suppkey" TInt;
        column "lno" TInt; column "qty" TInt; column "prc" TFloat;
      ];
  ]

let empty_database () =
  let db = R.Database.create () in
  List.iter (R.Database.add_table db) schema_tables;
  db

(* --- generation ------------------------------------------------------- *)

let generate cfg : R.Database.t =
  let open R.Value in
  let db = empty_database () in
  let root = Rng.create cfg.seed in
  let sz = sizes_of cfg in

  let regions =
    List.init sz.regions (fun i ->
        [| Int i; String Text.regions_pool.(i mod Array.length Text.regions_pool) |])
  in
  R.Database.load db "Region" regions;

  let nations =
    List.init sz.nations (fun i ->
        let name, region = Text.nations_pool.(i mod Array.length Text.nations_pool) in
        [| Int i; String name; Int (region mod sz.regions) |])
  in
  R.Database.load db "Nation" nations;

  let rng = Rng.split root "supplier" in
  let suppliers =
    List.init sz.suppliers (fun i ->
        [|
          Int i; String (Text.supplier_name rng); String (Text.address rng);
          Int (Rng.int rng sz.nations);
        |])
  in
  R.Database.load db "Supplier" suppliers;

  let rng = Rng.split root "part" in
  let parts =
    List.init sz.parts (fun i ->
        [|
          Int i; String (Text.part_name rng); String (Text.manufacturer rng);
          String (Text.brand rng); String (Text.size rng);
          Float (900.0 +. (Rng.float rng *. 100.0));
        |])
  in
  R.Database.load db "Part" parts;

  (* Suppliers in the final fraction of the key space supply nothing. *)
  let rng = Rng.split root "partsupp" in
  let supplying =
    max 1
      (int_of_float
         (Float.round
            (float_of_int sz.suppliers *. (1.0 -. cfg.supplier_no_part_fraction))))
  in
  let seen = Hashtbl.create 256 in
  let partsupp = ref [] in
  List.iteri
    (fun p _ ->
      let copies = 1 + Rng.int rng 2 in
      for _ = 1 to copies do
        let s = Rng.int rng supplying in
        if not (Hashtbl.mem seen (p, s)) then begin
          Hashtbl.add seen (p, s) ();
          partsupp := [| Int p; Int s; Int (Rng.range rng 1 9999) |] :: !partsupp
        end
      done)
    parts;
  let partsupp = List.rev !partsupp in
  R.Database.load db "PartSupp" partsupp;

  let rng = Rng.split root "customer" in
  let customers =
    List.init sz.customers (fun i ->
        [|
          Int i; String (Text.customer_name rng); String (Text.address rng);
          Int (Rng.int rng sz.nations); String (Text.phone rng);
        |])
  in
  R.Database.load db "Customer" customers;

  let rng = Rng.split root "orders" in
  let statuses = [| "O"; "F"; "P" |] in
  let orders =
    List.init sz.orders (fun i ->
        [|
          Int i; Int (Rng.int rng sz.customers); String (Rng.pick rng statuses);
          Float (1000.0 +. (Rng.float rng *. 99000.0));
          Date (Rng.range rng 8000 11000);
        |])
  in
  R.Database.load db "Orders" orders;

  (* Lineitems pick only from the leading fraction of partsupp pairs, so
     the tail pairs are supplied parts with no pending orders. *)
  let rng = Rng.split root "lineitem" in
  let ps_arr = Array.of_list partsupp in
  let orderable =
    max 1
      (int_of_float
         (Float.round
            (float_of_int (Array.length ps_arr)
            *. (1.0 -. cfg.partsupp_no_order_fraction))))
  in
  let lineitems = ref [] in
  List.iteri
    (fun o _ ->
      let n = 1 + Rng.int rng 5 in
      for lno = 1 to n do
        let ps = ps_arr.(Rng.int rng orderable) in
        let partkey = ps.(0) and suppkey = ps.(1) in
        lineitems :=
          [|
            Int o; partkey; suppkey; Int lno; Int (Rng.range rng 1 50);
            Float (1.0 +. (Rng.float rng *. 999.0));
          |]
          :: !lineitems
      done)
    orders;
  R.Database.load db "LineItem" (List.rev !lineitems);

  (* Total-participation inclusions that hold by construction; the
     labeler's C2 test reads these. *)
  List.iter
    (R.Database.declare_inclusion db)
    [
      {
        R.Schema.inc_table = "Orders"; inc_cols = [ "orderkey" ];
        inc_ref_table = "LineItem"; inc_ref_cols = [ "orderkey" ];
      };
    ];
  db

(* Fisher-Yates per table, each on its own labelled sub-stream. *)
let shuffle seed db =
  let root = Rng.create seed in
  List.iter
    (fun table ->
      let rng = Rng.split root table in
      let rows = Array.copy (R.Database.raw_data db table) in
      for i = Array.length rows - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = rows.(i) in
        rows.(i) <- rows.(j);
        rows.(j) <- t
      done;
      R.Database.load db table (Array.to_list rows))
    (R.Database.table_names db)

(* A tiny fixed instance mirroring the paper's Fig. 8 fragment, for unit
   tests and documentation examples. *)
let figure8_database () =
  let open R.Value in
  let db = empty_database () in
  R.Database.load db "Region"
    [ [| Int 1; String "America" |]; [| Int 2; String "Iberia" |]; [| Int 3; String "Europe" |] ];
  R.Database.load db "Nation"
    [
      [| Int 24; String "USA"; Int 1 |];
      [| Int 3; String "Spain"; Int 2 |];
      [| Int 19; String "France"; Int 3 |];
    ];
  R.Database.load db "Supplier"
    [
      [| Int 1; String "USA Metalworks"; String "New York"; Int 24 |];
      [| Int 2; String "Romana Espanola"; String "Madrid"; Int 3 |];
      [| Int 3; String "Fonderie Francais"; String "Paris"; Int 19 |];
    ];
  R.Database.load db "Part"
    [
      [| Int 4; String "plated brass"; String "mfgr#3"; String "Brand1"; String "S"; Float 904.00 |];
      [| Int 12; String "anodized steel"; String "mfgr#4"; String "Brand2"; String "M"; Float 912.01 |];
      [| Int 20; String "polished nickel"; String "mfgr#1"; String "Brand3"; String "L"; Float 920.02 |];
    ];
  R.Database.load db "PartSupp"
    [
      [| Int 4; Int 1; Int 100 |];
      [| Int 12; Int 1; Int 320 |];
      [| Int 20; Int 3; Int 64 |];
    ];
  R.Database.load db "Customer" [];
  R.Database.load db "Orders" [];
  R.Database.load db "LineItem" [];
  db
