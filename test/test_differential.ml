(* Differential safety net for the typed-IR executor: for every plan of
   Query 1, both SQL styles, the production path (rows drained to the
   heap or spooled, and resilient under injected faults) must produce XML
   byte-identical to the same plan executed through the seed AST
   interpreter ([Executor.run_legacy]) and tagged directly — and must
   never charge more work than the seed did. *)

open Silkroute
module R = Relational

let tpch scale = Tpch.Gen.generate (Tpch.Gen.config scale)

(* The reference: each stream through the legacy interpreter, tagged
   straight from the materialized relations. *)
let legacy_xml_and_work db tree plan opts =
  let streams = Sql_gen.streams db tree plan opts in
  let work = ref 0 in
  let pairs =
    List.map
      (fun s ->
        let rel, st = R.Executor.run_legacy_with_stats db s.Sql_gen.query in
        work := !work + st.R.Executor.work;
        (s, rel))
      streams
  in
  (Tagger.to_string tree pairs, !work)

let opts_of style = { Sql_gen.style; labels = None }

let test_all_plans_both_styles () =
  let db = tpch 0.1 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let tree = p.Middleware.tree in
  List.iter
    (fun style ->
      let sname =
        match style with
        | Sql_gen.Outer_join -> "outer-join"
        | Sql_gen.Outer_union -> "outer-union"
      in
      List.iter
        (fun mask ->
          let plan = Partition.of_mask tree mask in
          let legacy, legacy_work =
            legacy_xml_and_work db tree plan (opts_of style)
          in
          List.iter
            (fun spool ->
              let label what =
                Printf.sprintf "%s mask %d, spool=%b: %s" sname mask spool what
              in
              let e = Middleware.execute ~style ~spool p plan in
              Alcotest.(check string)
                (label "XML = legacy")
                legacy
                (Middleware.xml_string_of p e);
              if e.Middleware.work > legacy_work then
                Alcotest.failf "%s (new %d > seed %d)"
                  (label "work exceeds seed")
                  e.Middleware.work legacy_work)
            [ false; true ])
        (Partition.all_masks tree))
    [ Sql_gen.Outer_join; Sql_gen.Outer_union ]

(* Resilient path vs the legacy reference at fault rates 0 and 0.3:
   retries and degradations may fire, the bytes may not change. *)
let test_all_plans_resilient () =
  let db = tpch 0.05 in
  let p = Middleware.prepare_text db Queries.query1_text in
  let tree = p.Middleware.tree in
  let faults_seen = ref 0 in
  List.iter
    (fun rate ->
      List.iter
        (fun mask ->
          let plan = Partition.of_mask tree mask in
          let legacy, _ =
            legacy_xml_and_work db tree plan (opts_of Sql_gen.Outer_join)
          in
          let backend =
            R.Backend.create
              ~faults:(R.Backend.faults ~seed:14 rate)
              ~retry:
                { R.Backend.default_retry with R.Backend.max_retries = 8 }
              db
          in
          let e =
            Middleware.execute ~backend ~max_splits:8 ~spool:true p plan
          in
          faults_seen :=
            !faults_seen + e.Middleware.resilience.Middleware.r_faults;
          Alcotest.(check string)
            (Printf.sprintf "rate %.1f mask %d: resilient XML = legacy" rate
               mask)
            legacy
            (Middleware.xml_string_of p e))
        (Partition.all_masks tree))
    [ 0.0; 0.3 ];
  Alcotest.(check bool) "faults actually fired at rate 0.3" true
    (!faults_seen > 0)

let suite =
  [
    Alcotest.test_case "all plans, both styles, mat + streaming = legacy"
      `Slow test_all_plans_both_styles;
    Alcotest.test_case "all plans, resilient at fault rates 0/0.3 = legacy"
      `Slow test_all_plans_resilient;
  ]
