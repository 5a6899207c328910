(* Custom source description: a non-TPC-H schema (a bookstore) showing
   how keys, NOT NULL foreign keys and declared inclusion dependencies —
   the paper's "source description" — drive edge labeling and therefore
   reduction and plan quality.

   Run with:  dune exec examples/custom_source.exe *)

module R = Relational
module S = Silkroute

let build_db () =
  let db = R.Database.create () in
  R.Database.add_table db
    (R.Schema.table "Publisher" ~key:[ "pubid" ]
       [ R.Schema.column "pubid" R.Value.TInt;
         R.Schema.column "name" R.Value.TString;
         R.Schema.column "city" R.Value.TString ]);
  R.Database.add_table db
    (R.Schema.table "Book" ~key:[ "bid" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "pubid" ]; ref_table = "Publisher";
             ref_cols = [ "pubid" ] } ]
       [ R.Schema.column "bid" R.Value.TInt;
         R.Schema.column "pubid" R.Value.TInt;
         R.Schema.column "title" R.Value.TString;
         R.Schema.column "year" R.Value.TInt ]);
  R.Database.add_table db
    (R.Schema.table "Review" ~key:[ "rid" ]
       ~foreign_keys:
         [ { R.Schema.fk_cols = [ "bid" ]; ref_table = "Book"; ref_cols = [ "bid" ] } ]
       [ R.Schema.column "rid" R.Value.TInt;
         R.Schema.column "bid" R.Value.TInt;
         R.Schema.column "stars" R.Value.TInt ]);
  let i n = R.Value.Int n and s x = R.Value.String x in
  R.Database.load db "Publisher"
    [ [| i 1; s "ACM Press"; s "New York" |];
      [| i 2; s "North-Holland"; s "Amsterdam" |] ];
  R.Database.load db "Book"
    [ [| i 10; i 1; s "Foundations of Databases"; i 1995 |];
      [| i 11; i 1; s "The Art of SQL"; i 2001 |];
      [| i 12; i 2; s "Handbook of Logic"; i 1989 |] ];
  R.Database.load db "Review"
    [ [| i 100; i 10; i 5 |]; [| i 101; i 10; i 4 |]; [| i 102; i 12; i 5 |] ];
  db

let view_text =
  {|view catalog
    { from Book $b construct
        <book>
          <title>$b.title</title>
          { from Publisher $p
            where $b.pubid = $p.pubid
            construct <publisher>$p.name</publisher> }
          { from Review $r
            where $b.bid = $r.bid
            construct <review>$r.stars</review> }
        </book> }|}

let print_labels (p : S.Middleware.prepared) =
  print_endline (S.Label.to_string p.S.Middleware.tree p.S.Middleware.labels)

let () =
  let db = build_db () in
  print_endline "=== without any declared total participation ===";
  let p = S.Middleware.prepare_text db view_text in
  print_labels p;
  print_endline
    "book->publisher is '1' (NOT NULL FK onto the Publisher key: C1 and C2\n\
     both hold), so reduction folds the publisher into the book query;\n\
     book->review is '*' (a book may have no reviews).";

  print_endline "\n=== declaring 'every book has at least one review' ===";
  R.Database.declare_inclusion db
    { R.Schema.inc_table = "Book"; inc_cols = [ "bid" ];
      inc_ref_table = "Review"; inc_ref_cols = [ "bid" ] };
  let p2 = S.Middleware.prepare_text db view_text in
  print_labels p2;
  print_endline
    "book->review became '+': C2 now holds via the declared inclusion\n\
     dependency, but a book can still have many reviews (no C1).";
  print_endline
    "(Note: the declared inclusion is a promise about the data; here it is\n\
     false — book 11 has no reviews — which shows why the source\n\
     description must be curated.  Labels affect only reduction, never\n\
     correctness of '*'-style plans.)";

  print_endline "\n=== materialized view ===";
  let doc =
    S.Middleware.document_of p2
      (S.Middleware.execute p2 (S.Middleware.partition_of p2 S.Middleware.Unified))
  in
  print_string (Xmlkit.Serialize.to_pretty_string doc);

  (* The DTD this view publishes against. *)
  let dtd =
    Xmlkit.Dtd.create ~root:"catalog"
      [
        { Xmlkit.Dtd.el_name = "catalog";
          el_content = Xmlkit.Dtd.Children [ ("book", Xmlkit.Dtd.Star) ] };
        { el_name = "book";
          el_content =
            Xmlkit.Dtd.Children
              [ ("title", Xmlkit.Dtd.One); ("publisher", Xmlkit.Dtd.One);
                ("review", Xmlkit.Dtd.Star) ] };
        { el_name = "title"; el_content = Xmlkit.Dtd.Pcdata };
        { el_name = "publisher"; el_content = Xmlkit.Dtd.Pcdata };
        { el_name = "review"; el_content = Xmlkit.Dtd.Pcdata };
      ]
  in
  Printf.printf "DTD-valid: %b\n" (Xmlkit.Validate.is_valid dtd doc)
