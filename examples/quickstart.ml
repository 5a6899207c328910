(* Quickstart: define a tiny relational database, write an RXL view,
   materialize the XML.

   Run with:  dune exec examples/quickstart.exe *)

module R = Relational
module S = Silkroute

let () =
  (* 1. A database: two tables with a key/foreign-key relationship. *)
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "Team" ~key:[ "tid" ]
       [ R.Schema.column "tid" R.Value.TInt;
         R.Schema.column "name" R.Value.TString ]);
  R.Database.add_table db
    (R.Schema.table "Player" ~key:[ "pid" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "tid" ]; ref_table = "Team"; ref_cols = [ "tid" ] } ]
       [ R.Schema.column "pid" R.Value.TInt;
         R.Schema.column "tid" R.Value.TInt;
         R.Schema.column "name" R.Value.TString;
         R.Schema.column "goals" R.Value.TInt ]);
  let i n = R.Value.Int n and s x = R.Value.String x in
  R.Database.load db "Team" [ [| i 1; s "Reds" |]; [| i 2; s "Blues" |]; [| i 3; s "Greens" |] ];
  R.Database.load db "Player"
    [ [| i 10; i 1; s "Ada"; i 7 |];
      [| i 11; i 1; s "Grace"; i 12 |];
      [| i 12; i 2; s "Edsger"; i 3 |] ];

  (* 2. An RXL view: nested structure with a one-to-many block.  Note the
     Greens have no players — the outer-join semantics keeps them. *)
  let view_text =
    {|view league
      { from Team $t construct
          <team>
            <name>$t.name</name>
            { from Player $p
              where $t.tid = $p.tid
              construct <player>$p.name</player> }
          </team> }|}
  in

  (* 3. Materialize with the greedy planner. *)
  let p = S.Middleware.prepare_text db view_text in
  let plan = S.Middleware.partition_of p S.Middleware.Greedy in
  let execution = S.Middleware.execute p plan in
  let doc = S.Middleware.document_of p execution in
  print_endline "--- materialized XML ---";
  print_string (Xmlkit.Serialize.to_pretty_string doc);

  (* 4. Look under the hood: the SQL the middleware generated. *)
  print_endline "--- generated SQL ---";
  List.iter
    (fun se -> print_endline se.S.Middleware.se_sql)
    execution.S.Middleware.per_stream;
  Printf.printf "--- %d tuple stream(s), %d tuples, %d bytes transferred ---\n"
    (List.length execution.S.Middleware.per_stream)
    execution.S.Middleware.tuples execution.S.Middleware.bytes
