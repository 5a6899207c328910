(* Exhaustive print → parse structural round trip over every SQL query
   the generator can emit for the paper's benchmark views: q1/q2 × all
   2^|E| plans × {outer-join, outer-union} × {reduced, unreduced}.  The
   middleware ships SQL as text and re-parses it, so any printer/parser
   disagreement silently changes the plan the engine runs; this pins
   [parse (print q)] to be structurally equal to [q], not merely a text
   fixpoint. *)

open Silkroute
module R = Relational

let style_name = function
  | Sql_gen.Outer_join -> "outer-join"
  | Sql_gen.Outer_union -> "outer-union"

let check_stream ~ctx (s : Sql_gen.stream) =
  let q = s.Sql_gen.query in
  let structural printer pname =
    let text = printer q in
    let q' = R.Sql_parser.parse text in
    if q' <> q then
      Alcotest.failf "%s: %s round trip is not structural for\n%s" ctx pname
        text
  in
  structural R.Sql_print.to_string "to_string";
  structural R.Sql_print.to_pretty_string "to_pretty_string"

let test_exhaustive () =
  let db = Tpch.Gen.generate (Tpch.Gen.config 0.01) in
  let total = ref 0 in
  List.iter
    (fun (qname, text) ->
      let p = Middleware.prepare_text db text in
      let tree = p.Middleware.tree in
      List.iter
        (fun style ->
          List.iter
            (fun reduce ->
              let opts =
                {
                  Sql_gen.style;
                  labels = (if reduce then Some p.Middleware.labels else None);
                }
              in
              List.iter
                (fun mask ->
                  let plan = Partition.of_mask tree mask in
                  let ctx =
                    Printf.sprintf "%s mask=%d %s reduce=%b" qname mask
                      (style_name style) reduce
                  in
                  List.iter
                    (fun s ->
                      incr total;
                      check_stream ~ctx s)
                    (Sql_gen.streams db tree plan opts))
                (Partition.all_masks tree))
            [ true; false ])
        [ Sql_gen.Outer_join; Sql_gen.Outer_union ])
    [ ("q1", Queries.query1_text); ("q2", Queries.query2_text) ];
  (* 2 views x 512 plans x 2 styles x 2 reduce modes, several streams
     per plan: make sure the loop actually enumerated them all *)
  Alcotest.(check bool)
    (Printf.sprintf "covered %d streams" !total)
    true (!total > 10_000)

let suite =
  [
    Alcotest.test_case "print-parse structural, all plans/styles" `Slow
      test_exhaustive;
  ]
