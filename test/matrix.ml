(* The lattice matrix: every plan × execution mode, checked by one
   harness against one reference.  A cell is (view, database, mask,
   point, mode): a point is the SQL style and whether labels reduce the
   plan; a mode runs the point's one plan on a connection — heap or
   spooled rows, a pool size, faults, retries, splits, a work budget —
   or is the seed interpreter.

   References are memoized process-wide, so later suites reuse them: per
   (view, database) the naive-datalog truth, DTD-valid where the view
   has a DTD; per lattice point one inline heap run, whose document must
   equal the truth.  Every other cell reproduces that run's string-path
   bytes (never a serialized document: the tagger's writers do not
   self-close an empty element) and, fault-free, its accounting. *)

open Silkroute
module R = Relational

(* The value of [key] in [tbl], computed by [f] the first time. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

(* --- spool files -------------------------------------------------------- *)

let spool_files () =
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"silkroute" f
         && Filename.check_suffix f ".spool")

(* Runs [f] with spool files going to a fresh directory of its own, so a
   leak check sees only its own files.  The temp dir is domain-local
   and inherited at spawn, so pools must be created inside [f]. *)
let with_private_spool_dir f =
  let dir = Filename.temp_dir "silkroute-test" "" in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  let remove f = Sys.remove (Filename.concat dir f) in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Array.iter remove (Sys.readdir dir);
      Sys.rmdir dir)
    f

(* --- views, databases, points, modes ------------------------------------ *)

type view = { name : string; prepare : R.Database.t -> Middleware.prepared;
              dtd : Xmlkit.Dtd.t option }

let of_text ?dtd name text =
  { name; prepare = (fun db -> Middleware.prepare_text db text); dtd }

let of_rxl v =
  let prepare db = Middleware.prepare db v in
  { name = Rxl.to_string v; prepare; dtd = None }

let q1 = of_text ~dtd:Queries.dtd_query1 "q1" Queries.query1_text
let q2 = of_text ~dtd:Queries.dtd_query2 "q2" Queries.query2_text
let q3 = of_text ~dtd:Queries.dtd_query3 "q3" Queries.query3_text
let fragment = of_text "fragment" Queries.fragment_text

let mixed_content =
  of_text "mixed-content"
    {|view v { from Nation $n construct
        <nation>$n.name
          { from Region $r where $n.regionkey = $r.regionkey
            construct <region>$r.name</region> } </nation> }|}

let forest =
  of_text "forest"
    {|view directory
      { from Supplier $s construct <supplier>$s.name</supplier> }
      { from Nation $n construct <nation>$n.name</nation> }|}

(* One instance per name, so memoized references stay valid. *)
type db = { db_name : string; db : R.Database.t Lazy.t }

let databases = Hashtbl.create 8

let database db_name make =
  memo databases db_name (fun () -> { db_name; db = Lazy.from_fun make })

let tpch scale =
  database (Printf.sprintf "tpch %g" scale) (fun () ->
      Tpch.Gen.generate (Tpch.Gen.config scale))

(* The same rows in shuffled order: sorts merge runs instead of finding
   their input already in key order. *)
let tpch_shuffled scale =
  database (Printf.sprintf "tpch %g shuffled" scale) (fun () ->
      let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
      Tpch.Gen.shuffle 7L db;
      db)

let figure8 = database "figure8" Tpch.Gen.figure8_database
let empty = database "empty" Tpch.Gen.empty_database

type point = Sql_gen.style * bool (* reduce *)

let oj = (Sql_gen.Outer_join, false)
let oj_reduced = (Sql_gen.Outer_join, true)
let ou = (Sql_gen.Outer_union, false)
let ou_reduced = (Sql_gen.Outer_union, true)
let every_point = [ oj; oj_reduced; ou; ou_reduced ]

(* [budget] is work units per submission, 0 for none. *)
type faults =
  { rate : float; seed : int; retries : int; max_splits : int; budget : int }

let no_faults = { rate = 0.; seed = 0; retries = 0; max_splits = 0; budget = 0 }

(* Faults as the CLI's --resilient meets them: 8 retries, 8 splits. *)
let resilient ?(budget = 0) ~seed rates =
  List.map
    (fun rate -> { rate; seed; retries = 8; max_splits = 8; budget })
    rates

(* [pool] is the number of domains; a pool of 1 runs inline. *)
type mode = Run of { spool : bool; pool : int; faults : faults } | Legacy

let heap = Run { spool = false; pool = 1; faults = no_faults }
let spooled = Run { spool = true; pool = 1; faults = no_faults }

(* The run modes spool × pool × faults. *)
let runs ?(spool = [ false ]) ?(pool = [ 1 ]) ?(faults = [ no_faults ]) () =
  List.concat_map
    (fun faults ->
      List.concat_map
        (fun pool -> List.map (fun spool -> Run { spool; pool; faults }) spool)
        pool)
    faults

(* --- references --------------------------------------------------------- *)

(* [canonical] holds the first reference's bytes. *)
type truth = { label : string; p : Middleware.prepared; doc : Xmlkit.Xml.t;
               mutable canonical : string }

let truths = Hashtbl.create 16

let truth view db =
  let label = Printf.sprintf "%s on %s" view.name db.db_name in
  memo truths label @@ fun () ->
  let p = view.prepare (Lazy.force db.db) in
  let doc = Middleware.materialize_naive p in
  let errors dtd = Xmlkit.Validate.validate dtd doc in
  Option.iter
    (fun dtd ->
      Alcotest.(check (list string)) (label ^ ": truth is DTD-valid") []
        (List.map (Format.asprintf "%a" Xmlkit.Validate.pp_error) (errors dtd)))
    view.dtd;
  { label; p; doc; canonical = "" }

(* Twice the heaviest single-node stream's work: every leaf sub-query
   fits, bigger fragments may not. *)
let degradation_budget view db =
  let p = (truth view db).p in
  let e = Middleware.execute p (Partition.fully_partitioned p.tree) in
  let work (se : Middleware.stream_exec) = se.se_stats.R.Executor.work in
  List.fold_left (fun acc se -> max acc (2 * work se)) 0 e.per_stream

type reference = { bytes : string; work : int; tuples : int; out_bytes : int;
                   transfer_ms : float }

let references = Hashtbl.create 1024

let reference t mask ((style, reduce) as point) =
  memo references (t.label, mask, point) @@ fun () ->
  let p = t.p in
  let e = Middleware.execute ~style ~reduce p (Partition.of_mask p.tree mask) in
  (* every executed node has its actuals, and the nodes' own costs add
     up to the stream's work: none is counted twice or dropped *)
  List.iter
    (fun (se : Middleware.stream_exec) ->
      let cost = ref 0 in
      let act = se.se_stats.R.Executor.actuals in
      R.Physical.iter
        (fun n ->
          if act.rows.(n.id) < 0 then
            Alcotest.failf "%s, mask %d, %s: node %s has no actual rows" t.label
              mask se.se_sql (R.Physical.op_name n);
          if act.cost.(n.id) >= 0 then cost := !cost + act.cost.(n.id))
        se.se_plan;
      if !cost <> se.se_stats.R.Executor.work then
        Alcotest.failf "%s, mask %d, %s: node costs sum to %d, work is %d"
          t.label mask se.se_sql !cost se.se_stats.work)
    e.per_stream;
  (* the heap run's rows reopen: the document path and the string path
     each tag them *)
  if not (Xmlkit.Xml.equal (Tagger.to_document_cursors p.tree (Middleware.cursors e)) t.doc)
  then Alcotest.failf "%s, mask %d: document differs from the truth" t.label mask;
  (* the points of a view agree: keep one copy of their bytes *)
  let bytes = Tagger.to_string_cursors p.tree (Middleware.cursors e) in
  if t.canonical = "" then t.canonical <- bytes;
  let bytes = if bytes = t.canonical then t.canonical else bytes in
  { bytes; work = e.work; tuples = e.tuples; out_bytes = e.bytes;
    transfer_ms = e.transfer_ms }

let reference_work view db mask = (reference (truth view db) mask oj).work

(* --- cells -------------------------------------------------------------- *)

(* Cells pass silently: a slice has thousands. *)
let expect_bytes label expected actual =
  if not (String.equal expected actual) then
    Alcotest.failf "%s: %d bytes of XML where the reference has %d" label
      (String.length actual) (String.length expected)

(* The seed interpreter's streams, tagged directly: the reference's
   bytes, for no less work. *)
let legacy_cell label (p : Middleware.prepared) plan (style, reduce) r =
  let labels = if reduce then Some p.labels else None in
  let work = ref 0 in
  let run s =
    let rel, st = Oracle.Legacy.run_with_stats p.db s.Sql_gen.query in
    work := !work + st.R.Executor.work;
    (s, rel)
  in
  let streams = Sql_gen.streams p.db p.tree plan { style; labels } in
  expect_bytes label r.bytes (Tagger.to_string p.tree (List.map run streams));
  if r.work > !work then
    Alcotest.failf "%s: engine work %d exceeds legacy %d" label r.work !work;
  []

(* The first resilience record per faulted (point, spool, faults). *)
let first_records = Hashtbl.create 256

(* A run of the point's [planned] streams reproduces the reference's
   bytes.  Fault-free, also its accounting, in one clean attempt per
   stream.  Faulted, it runs twice, each time on a fresh connection, and
   reproduces its bytes and resilience record — the same record at
   every pool size — within the retry bound; the record goes to the
   slice's [fired] check. *)
let run_cell label key (p : Middleware.prepared) planned ~spool ~pool f r =
  let run () =
    let backend =
      if f = no_faults then None
      else
        let faults = R.Backend.faults ~seed:f.seed f.rate in
        Some (R.Backend.create ~faults ~retries:f.retries ~budget:f.budget p.db)
    in
    let e =
      Middleware.run ?backend ~max_splits:f.max_splits ~spool ~pool planned
    in
    (e, Middleware.xml_string_of p e)
  in
  let e, xml = run () in
  expect_bytes label r.bytes xml;
  let res = (e.resilience, e.degraded) in
  let st = e.resilience in
  if f.rate = 0. && f.budget = 0 then begin
    let n = List.length e.per_stream in
    if (e.work, e.tuples, e.bytes, e.transfer_ms)
       <> (r.work, r.tuples, r.out_bytes, r.transfer_ms)
    then Alcotest.failf "%s: accounting differs from the reference" label;
    if res <> ({ R.Backend.submits = n; attempts = n; retries = 0;
                 faults_transient = 0; faults_midstream = 0; faults_fatal = 0;
                 timeouts = 0; backoff_ms = 0.; wasted_work = 0 }, 0)
    then Alcotest.failf "%s: not one clean attempt per stream" label;
    []
  end
  else begin
    let e2, xml2 = run () in
    expect_bytes (label ^ ", rerun") xml xml2;
    if res <> (e2.resilience, e2.degraded) then
      Alcotest.failf "%s: resilience record not reproduced" label;
    if st.attempts > st.submits * (1 + f.retries) then
      Alcotest.failf "%s: %d attempts for %d submits" label st.attempts
        st.submits;
    if memo first_records key (fun () -> res) <> res then
      Alcotest.failf "%s: resilience record differs across pools" label;
    [ res ]
  end

(* --- slices ------------------------------------------------------------- *)

type slice = { view : view; db : db; masks : int -> bool; points : point list;
               modes : mode list }

let all _ = true
let every k mask = mask mod k = 0
let only l mask = List.mem mask l

let slice ?(masks = all) ?(points = [ oj ]) ?(modes = [ heap ]) view db =
  { view; db; masks; points; modes }

let pool_of = function Legacy -> 1 | Run { pool; _ } -> pool

(* The cells of [modes] at one lattice point on [pool], each followed by
   a leak check of the private spool dir; the faulted cells' records.
   The point is planned once, for every run cell, and the plan lives
   no longer than this call. *)
let check_point modes t pool mask ((style, reduce) as point) =
  let plan = Partition.of_mask t.p.tree mask in
  let planned = lazy (Middleware.plan_streams ~style ~reduce t.p plan) in
  let r = reference t mask point in
  let cell mode =
    let name = function
      | Legacy -> "legacy"
      | Run { spool; pool; faults = f } ->
          Printf.sprintf "spool %b, %d domains, rate %g seed %d budget %d"
            spool pool f.rate f.seed f.budget
    in
    let label =
      Printf.sprintf "%s, mask %d, %s, reduce %b, %s" t.label mask
        (if style = Sql_gen.Outer_join then "oj" else "ou")
        reduce (name mode)
    in
    let records =
      match mode with
      | Legacy -> legacy_cell label t.p plan point r
      | Run { spool = false; pool = 1; faults } when faults = no_faults ->
          [] (* the reference itself *)
      | Run { spool; faults; _ } ->
          let key = (t.label, mask, point, spool, faults) in
          run_cell label key t.p (Lazy.force planned) ~spool ~pool faults r
    in
    if spool_files () <> [] then Alcotest.failf "%s: spool file left" label;
    records
  in
  List.concat_map cell modes

(* Checks every cell of [slices], one pool (and spool dir) per pool size.
   Each counter in [fired] must be positive in some faulted cell's
   record.  A point whose runs raise an exception [skip] accepts is
   skipped. *)
let check ?(fired = []) ?(skip = fun _ -> false) slices =
  let check_slice s =
    let t = truth s.view s.db in
    let masks = List.filter s.masks (Partition.all_masks t.p.tree) in
    List.sort_uniq compare (List.map pool_of s.modes)
    |> List.concat_map (fun size ->
           let modes = List.filter (fun m -> pool_of m = size) s.modes in
           with_private_spool_dir @@ fun () ->
           R.Domain_pool.with_pool ~domains:size @@ fun pool ->
           let point mask pt =
             try check_point modes t pool mask pt with e when skip e -> []
           in
           List.concat_map (fun m -> List.concat_map (point m) s.points) masks)
  in
  let records = List.concat_map check_slice slices in
  let counter = function
    | `Faults -> ("faults", fun (st, _) -> R.Backend.total_faults st)
    | `Retries -> ("retries", fun ((st : R.Backend.stats), _) -> st.retries)
    | `Degraded -> ("degradations", fun (_, degraded) -> degraded)
  in
  List.iter
    (fun c ->
      let name, count = counter c in
      if not (List.exists (fun r -> count r > 0) records) then
        Alcotest.failf "no %s across the slices" name)
    fired
