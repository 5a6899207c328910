(* The merge tagger (paper Sec. 3.3): stream merging, nesting, document
   order, fused-payload emission, sinks. *)

open Silkroute
module R = Relational

let setup ?(scale = 0.1) text =
  let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
  (db, Middleware.prepare_text db text)

(* Each stream's rows as a relation, for the tagger's relation API. *)
let relations e =
  List.map
    (fun se ->
      ( se.Middleware.se_stream,
        R.Cursor.to_relation (se.Middleware.se_cursor ()) ))
    e.Middleware.per_stream

let figure8_xml =
  "<suppliers><supplier><nation>USA</nation><part>plated brass</part>\
   <part>anodized steel</part></supplier><supplier><nation>Spain</nation>\
   </supplier><supplier><nation>France</nation><part>polished nickel</part>\
   </supplier></suppliers>"

let test_figure8_output () =
  (* the paper's Fig. 8: exact expected document *)
  let db = Tpch.Gen.figure8_database () in
  let p = Middleware.prepare_text db Queries.fragment_text in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  Alcotest.(check string) "matches Fig. 8" figure8_xml (Middleware.xml_string_of p e)

let test_absent_sibling_key_reads_null () =
  (* Fully partitioned Fig. 8 plan: the <part> stream carries no column
     for <nation>'s own key variables, so they read NULL there.  The merge
     comparator only reads the key variables of a tuple's own path, so
     giving the part stream those columns — all NULL, or below or above
     every real key — changes neither the merge order nor the bytes. *)
  let db = Tpch.Gen.figure8_database () in
  let p = Middleware.prepare_text db Queries.fragment_text in
  let tree = p.Middleware.tree in
  let e = Middleware.execute p (Partition.fully_partitioned tree) in
  Alcotest.(check string) "Fig. 8" figure8_xml (Tagger.to_string tree (relations e));
  let node_of tag =
    List.find (fun (n : View_tree.node) -> n.View_tree.tag = tag)
      (Array.to_list tree.View_tree.nodes)
  in
  let is_part_stream (d : Sql_gen.stream) =
    List.mem (node_of "part").View_tree.id d.Sql_gen.fragment.Partition.members
  in
  let part_desc, part_rel =
    match List.filter (fun (d, _) -> is_part_stream d) (relations e) with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected one <part> stream"
  in
  let nation_keys =
    (node_of "nation").View_tree.key_vars
    |> List.map (fun v -> Sql_gen.Var_col v)
    |> List.filter (fun c -> not (Array.mem c part_desc.Sql_gen.cols))
    |> Array.of_list
  in
  Alcotest.(check bool) "part stream lacks some nation keys" true
    (Array.length nation_keys > 0);
  let with_nation_keys v =
    let extra = Array.map (fun _ -> v) nation_keys in
    let desc =
      { part_desc with Sql_gen.cols = Array.append part_desc.Sql_gen.cols nation_keys }
    in
    let rel =
      R.Relation.create
        (Array.append (R.Relation.cols part_rel)
           (Array.mapi (fun i _ -> Printf.sprintf "extra%d" i) nation_keys))
        (List.map (fun t -> Array.append t extra) (R.Relation.rows part_rel))
    in
    List.map
      (fun (d, r) -> if is_part_stream d then (desc, rel) else (d, r))
      (relations e)
  in
  List.iter
    (fun (label, v) ->
      Alcotest.(check string) label figure8_xml
        (Tagger.to_string tree (with_nation_keys v)))
    [
      ("NULL column", R.Value.Null);
      ("low column", R.Value.Int min_int);
      ("high column", R.Value.Int max_int);
    ]

let test_escaping_sinks_agree () =
  (* every XML-special character, alone, in runs and between plain text:
     the string writer, the channel writer and the document path must
     produce the same bytes *)
  let db = Tpch.Gen.empty_database () in
  R.Database.load db "Region"
    [
      [| R.Value.Int 1; R.Value.String "<&>'\"" |];
      [| R.Value.Int 2; R.Value.String "a<b && c>'d\"e" |];
      [| R.Value.Int 3; R.Value.String "plain" |];
      [| R.Value.Int 4; R.Value.String "&&&<<>>" |];
    ];
  let p =
    Middleware.prepare_text db
      "view regions { from Region $r construct <region>$r.name</region> }"
  in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  let tree = p.Middleware.tree in
  let expected =
    "<regions><region>&lt;&amp;&gt;&apos;&quot;</region>\
     <region>a&lt;b &amp;&amp; c&gt;&apos;d&quot;e</region>\
     <region>plain</region><region>&amp;&amp;&amp;&lt;&lt;&gt;&gt;</region></regions>"
  in
  Alcotest.(check string) "string writer" expected (Tagger.to_string tree (relations e));
  let path = Filename.temp_file "tagger" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Tagger.to_channel tree (Middleware.cursors e) oc;
      close_out oc;
      let ic = open_in_bin path in
      let written = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "channel writer" expected written);
  Alcotest.(check string) "document path" expected
    (Xmlkit.Serialize.to_string (Tagger.to_document tree (relations e)))

(* Every Value constructor as text, loaded from CSV: negative, zero and
   extreme ints, floats, dates, bools, NULL, the empty string and every
   XML-special character.  The string writer, the channel writer and the
   serialized document must write the same bytes, unified and fully
   partitioned.  Each value shares its element with the row id, so no
   element is empty (a serialized document self-closes those).  The
   plans are reduced: an unreduced plan joins each child to its parent
   on the content columns too, and a NULL there drops the child. *)
let test_every_value_all_writers_agree () =
  let db =
    R.Source_desc.load_database
      {|
table T {
  id int key
  i  int null
  f  float null
  d  date null
  b  bool null
  s  string null
}
|}
  in
  let csv =
    Printf.sprintf
      "id,i,f,d,b,s\n\
       1,-5,-1.5,0,true,\"\"\n\
       2,%d,0.25,12345,false,\"<&>'\"\"\"\n\
       3,%d,1e300,-7,,\"a<b && c>'d\"\"e\"\n\
       4,0,,,,\n\
       5,,3,1,f,plain\n"
      min_int max_int
  in
  ignore (R.Csv.load db "T" csv);
  let p =
    Middleware.prepare_text db
      "view values { from T $t construct <row><i>$t.id $t.i</i><f>$t.id $t.f</f>\
       <d>$t.id $t.d</d><b>$t.id $t.b</b><s>$t.id $t.s</s></row> }"
  in
  let tree = p.Middleware.tree in
  List.iter
    (fun (name, plan) ->
      let e = Middleware.execute ~reduce:true p plan in
      let via_string = Tagger.to_string_cursors tree (Middleware.cursors e) in
      let path = Filename.temp_file "tagger" ".xml" in
      let via_channel =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            Tagger.to_channel tree (Middleware.cursors e) oc;
            close_out oc;
            In_channel.with_open_bin path In_channel.input_all)
      in
      let via_document =
        Xmlkit.Serialize.to_string (Tagger.to_document_cursors tree (Middleware.cursors e))
      in
      Alcotest.(check string) (name ^ ": channel writer") via_string via_channel;
      Alcotest.(check string) (name ^ ": document path") via_string via_document;
      List.iter
        (fun text ->
          let n = String.length text in
          let rec has i =
            i + n <= String.length via_string
            && (String.sub via_string i n = text || has (i + 1))
          in
          if not (has 0) then Alcotest.failf "%s: no %S in %s" name text via_string)
        [
          Printf.sprintf "<i>2%d</i>" min_int;
          Printf.sprintf "<i>3%d</i>" max_int;
          "<i>1-5</i>"; "<i>40</i>"; "<i>5</i>"; "<f>1-1.5</f>"; "<f>31e+300</f>";
          "<f>4</f>"; "<d>31970+-7d</d>"; "<b>1TRUE</b>"; "<b>5FALSE</b>"; "<s>1</s>";
          "<s>2&lt;&amp;&gt;&apos;&quot;</s>"; "<s>3a&lt;b &amp;&amp; c&gt;&apos;d&quot;e</s>";
        ])
    [
      ("unified", Partition.unified tree);
      ("partitioned", Partition.fully_partitioned tree);
    ]

let test_all_plans_agree_fragment () =
  Matrix.(check [ slice fragment figure8 ~masks:(only [ 0; 1; 2; 3 ]) ])

let test_document_order_q1 () =
  let _db, p = setup Queries.query1_text in
  let doc =
    Middleware.document_of p (Middleware.execute p (Partition.unified p.Middleware.tree))
  in
  (* every supplier's children follow the DTD order name,nation,region,part* *)
  let suppliers = Xmlkit.Xml.children_named (Xmlkit.Xml.root doc) "supplier" in
  Alcotest.(check bool) "has suppliers" true (List.length suppliers > 0);
  List.iter
    (fun s ->
      let tags =
        List.map (fun (e : Xmlkit.Xml.element) -> e.Xmlkit.Xml.tag)
          (Xmlkit.Xml.child_elements s)
      in
      match tags with
      | "name" :: "nation" :: "region" :: rest ->
          Alcotest.(check bool) "parts last" true
            (List.for_all (fun t -> t = "part") rest)
      | _ -> Alcotest.fail ("bad order: " ^ String.concat "," tags))
    suppliers

(* the unified plans' documents equal the DTD-valid truths *)
let test_dtd_validity_q1_q2 () =
  let masks = Matrix.only [ 511 ] in
  Matrix.(check [ slice q1 (tpch 0.2) ~masks; slice q2 (tpch 0.2) ~masks ])

let test_supplier_without_parts_kept () =
  (* outer-join semantics: part-less suppliers still appear *)
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let p = Middleware.prepare_text db Queries.query1_text in
  let doc = Middleware.document_of p (Middleware.execute p (Partition.unified p.Middleware.tree)) in
  let suppliers = Xmlkit.Xml.children_named (Xmlkit.Xml.root doc) "supplier" in
  Alcotest.(check int) "all suppliers present" (R.Database.row_count db "Supplier")
    (List.length suppliers);
  Alcotest.(check bool) "some have no parts" true
    (List.exists
       (fun s -> Xmlkit.Xml.children_named s "part" = [])
       suppliers)

let test_reduced_equals_non_reduced () =
  let masks = Matrix.only [ 0; 10; 101; 511 ] in
  Matrix.(check [ slice q2 (tpch 0.3) ~masks ~points:every_point ])

let test_empty_database () =
  let db = Tpch.Gen.empty_database () in
  let p = Middleware.prepare_text db Queries.query1_text in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  (* the streaming sink cannot self-close (it writes the open tag before
     knowing the element is empty) *)
  Alcotest.(check string) "just the root" "<suppliers></suppliers>"
    (Middleware.xml_string_of p e);
  Alcotest.(check string) "document sink self-closes" "<suppliers/>"
    (Xmlkit.Serialize.to_string (Middleware.document_of p e))

let test_buffer_and_document_sinks_agree () =
  let _db, p = setup Queries.query1_text in
  let e = Middleware.execute p (Partition.of_mask p.Middleware.tree 37) in
  let via_string = Middleware.xml_string_of p e in
  let via_doc = Xmlkit.Serialize.to_string (Middleware.document_of p e) in
  Alcotest.(check string) "agree" via_doc via_string

let test_tagger_output_parses () =
  let _db, p = setup Queries.query2_text in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  let doc = Xmlkit.Parse.parse (Middleware.xml_string_of p e) in
  Alcotest.(check bool) "well-formed" true
    (Xmlkit.Xml.equal doc (Middleware.document_of p e))

let test_escaping_through_tagger () =
  let db = Tpch.Gen.empty_database () in
  R.Database.load db "Region" [ [| R.Value.Int 1; R.Value.String "A&B <Ltd>" |] ];
  let p =
    Middleware.prepare_text db
      "view regions { from Region $r construct <region>$r.name</region> }"
  in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  Alcotest.(check string) "escaped"
    "<regions><region>A&amp;B &lt;Ltd&gt;</region></regions>"
    (Middleware.xml_string_of p e)

let test_constant_content () =
  let db = Tpch.Gen.figure8_database () in
  let p =
    Middleware.prepare_text db
      "view v { from Region $r construct <region><kind>'geo'</kind><n>$r.name</n></region> }"
  in
  let e = Middleware.execute p (Partition.unified p.Middleware.tree) in
  let doc = Middleware.document_of p e in
  let regions = Xmlkit.Xml.children_named (Xmlkit.Xml.root doc) "region" in
  Alcotest.(check int) "three regions" 3 (List.length regions);
  List.iter
    (fun r ->
      match Xmlkit.Xml.children_named r "kind" with
      | [ k ] -> Alcotest.(check string) "constant" "geo" (Xmlkit.Xml.text_content k)
      | _ -> Alcotest.fail "kind missing")
    regions

let test_mixed_text_and_children () =
  (* an element with both text and element children, split across
     fragments: text must precede the child (document order) *)
  Matrix.(check [ slice mixed_content figure8 ]);
  let truth = (Matrix.truth Matrix.mixed_content Matrix.figure8).doc in
  let nations = Xmlkit.Xml.children_named (Xmlkit.Xml.root truth) "nation" in
  Alcotest.(check int) "three nations" 3 (List.length nations);
  List.iter
    (fun (n : Xmlkit.Xml.element) ->
      match n.Xmlkit.Xml.children with
      | Xmlkit.Xml.Text _ :: Xmlkit.Xml.Element { Xmlkit.Xml.tag = "region"; _ } :: [] -> ()
      | _ -> Alcotest.fail "text must precede region child")
    nations

let test_parallel_top_queries_forest () =
  (* a view-tree forest: two parallel top-level queries under one root *)
  Matrix.(check [ slice forest figure8 ]);
  let truth = (Matrix.truth Matrix.forest Matrix.figure8).doc in
  (* all suppliers precede all nations (document order of top queries) *)
  let tags =
    List.map (fun (e : Xmlkit.Xml.element) -> e.Xmlkit.Xml.tag)
      (Xmlkit.Xml.child_elements (Xmlkit.Xml.root truth))
  in
  Alcotest.(check (list string)) "forest order"
    [ "supplier"; "supplier"; "supplier"; "nation"; "nation"; "nation" ] tags

let test_constant_space_depth_bound () =
  (* Sec. 3.3: tagger memory depends on the view tree, not the database.
     Track the open-element stack depth through a custom sink: it must
     never exceed the view-tree depth + 1 (the document root), at any
     database scale. *)
  let check scale =
    let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
    let p = Middleware.prepare_text db Queries.query1_text in
    let e = Middleware.execute p (Partition.of_mask p.Middleware.tree 237) in
    let depth = ref 0 and max_depth = ref 0 in
    let sink =
      {
        Tagger.on_open =
          (fun _ ->
            incr depth;
            if !depth > !max_depth then max_depth := !depth);
        on_text = (fun _ -> ());
        on_close = (fun _ -> decr depth);
      }
    in
    Tagger.tag_cursors p.Middleware.tree (Middleware.cursors e) sink;
    Alcotest.(check int) "balanced" 0 !depth;
    !max_depth
  in
  let tree_depth = 4 (* Query 1: supplier/part/order/leaf *) in
  let small = check 0.1 and large = check 0.8 in
  Alcotest.(check int) "bounded by tree depth (small)" (tree_depth + 1) small;
  Alcotest.(check int) "independent of database size" small large

(* sibling instances appear in key order (the ORDER BY sort keys),
   identically across plans: each plan's document is the truth *)
let test_sibling_order_deterministic () =
  Matrix.(check [ slice q1 (tpch 0.3) ~masks:(only [ 0; 511; 73 ]) ])

(* One cursor per row list, all sharing one stream's descriptor. *)
let cursors_of desc parts =
  let cols = Array.map (fun _ -> "c") desc.Sql_gen.cols in
  List.map (fun rows -> (desc, R.Cursor.of_list cols rows)) parts

(* A one-stream plan's descriptor and rows. *)
let single_stream ?reduce p =
  let e = Middleware.execute ?reduce p (Partition.unified p.Middleware.tree) in
  match relations e with
  | [ (desc, rel) ] -> (desc, R.Relation.rows rel)
  | _ -> Alcotest.fail "expected one stream"

let test_out_of_order_stream () =
  (* a stream fed in reverse is refused, naming the stream and the root
     of its fragment *)
  let _db, p = setup ~scale:0.05 Queries.query1_text in
  let tree = p.Middleware.tree in
  let e = Middleware.execute p (Partition.fully_partitioned tree) in
  let rels = relations e in
  let i = 2 in
  let desc, rel = List.nth rels i in
  Alcotest.(check bool) "stream has rows to reverse" true
    (List.length (R.Relation.rows rel) > 1);
  let reversed =
    List.mapi
      (fun j (d, r) ->
        if j = i then (d, R.Relation.create (R.Relation.cols r) (List.rev (R.Relation.rows r)))
        else (d, r))
      rels
  in
  let root = (View_tree.node tree desc.Sql_gen.fragment.Partition.root).View_tree.tag in
  match Tagger.to_string tree reversed with
  | _ -> Alcotest.fail "reversed stream accepted"
  | exception Invalid_argument msg ->
      let contains sub =
        let n = String.length sub in
        let rec go k = k + n <= String.length msg && (String.sub msg k n = sub || go (k + 1)) in
        go 0
      in
      Alcotest.(check bool) ("names the stream: " ^ msg) true
        (contains (Printf.sprintf "stream %d " i));
      Alcotest.(check bool) ("names the fragment root: " ^ msg) true
        (contains (Printf.sprintf "<%s>" root))

let test_all_heads_tie () =
  (* every stream holds the same regions under the same keys, each with
     its own text: all heads tie at every step, so only stream position
     orders them, and each region's text comes from stream 0 *)
  let db = Tpch.Gen.figure8_database () in
  let p =
    Middleware.prepare_text db
      "view regions { from Region $r construct <region>$r.name</region> }"
  in
  let tree = p.Middleware.tree in
  let desc, rows = single_stream p in
  let text_col =
    match (View_tree.node tree 0).View_tree.contents with
    | [ (_, View_tree.Content_var v) ] ->
        let rec find i = if desc.Sql_gen.cols.(i) = Sql_gen.Var_col v then i else find (i + 1) in
        find 0
    | _ -> Alcotest.fail "expected one text column"
  in
  let tagged_text s (t : R.Tuple.t) =
    Array.mapi
      (fun j v -> if j = text_col then R.Value.String (R.Value.to_string v ^ s) else v)
      t
  in
  let expected =
    "<regions>"
    ^ String.concat ""
        (List.map (fun t -> "<region>" ^ R.Value.to_string t.(text_col) ^ "/0</region>") rows)
    ^ "</regions>"
  in
  List.iter
    (fun k ->
      let parts = List.init k (fun i -> List.map (tagged_text (Printf.sprintf "/%d" i)) rows) in
      Alcotest.(check string) (Printf.sprintf "%d streams" k) expected
        (Tagger.to_string_cursors tree (cursors_of desc parts)))
    [ 1; 2; 3; 5; 8; 9 ]

let test_full_compares_reported () =
  (* the tagger span counts the ties its codes could not decide: none
     for one stream, fewer than the tuples for ten *)
  let _db, p = setup ~scale:0.05 Queries.query1_text in
  let tree = p.Middleware.tree in
  let tagger_attrs part =
    Fun.protect ~finally:Obs.Span.reset (fun () ->
        Obs.Span.reset ();
        Obs.Control.with_enabled true (fun () ->
            ignore (Middleware.xml_string_of p (Middleware.execute p part));
            match
              List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = "tagger") (Obs.Span.spans ())
            with
            | [ s ] ->
                let int name =
                  match Obs.Span.find_attr s name with
                  | Some (Obs.Attr.Int n) -> n
                  | _ -> Alcotest.failf "tagger span lacks %s" name
                in
                (int "streams", int "tuples", int "full_compares")
            | _ -> Alcotest.fail "expected one tagger span"))
  in
  let streams, tuples, full = tagger_attrs (Partition.fully_partitioned tree) in
  Alcotest.(check int) "ten streams" 10 streams;
  Alcotest.(check bool)
    (Printf.sprintf "full_compares %d < tuples %d" full tuples)
    true (full < tuples);
  let streams, _, full = tagger_attrs (Partition.unified tree) in
  Alcotest.(check int) "one stream" 1 streams;
  Alcotest.(check int) "no full compares" 0 full

let suite =
  [
    Alcotest.test_case "Fig. 8 exact output" `Quick test_figure8_output;
    Alcotest.test_case "constant-space depth bound" `Quick test_constant_space_depth_bound;
    Alcotest.test_case "deterministic sibling order" `Quick test_sibling_order_deterministic;
    Alcotest.test_case "parallel top-level queries" `Quick test_parallel_top_queries_forest;
    Alcotest.test_case "all fragment plans agree" `Quick test_all_plans_agree_fragment;
    Alcotest.test_case "document order (Q1)" `Quick test_document_order_q1;
    Alcotest.test_case "DTD validity (Q1, Q2)" `Quick test_dtd_validity_q1_q2;
    Alcotest.test_case "part-less suppliers kept" `Quick test_supplier_without_parts_kept;
    Alcotest.test_case "reduce/style invariance" `Quick test_reduced_equals_non_reduced;
    Alcotest.test_case "empty database" `Quick test_empty_database;
    Alcotest.test_case "sinks agree" `Quick test_buffer_and_document_sinks_agree;
    Alcotest.test_case "output parses back" `Quick test_tagger_output_parses;
    Alcotest.test_case "escaping" `Quick test_escaping_through_tagger;
    Alcotest.test_case "escaping: all sinks agree" `Quick test_escaping_sinks_agree;
    Alcotest.test_case "every value constructor: all writers agree" `Quick
      test_every_value_all_writers_agree;
    Alcotest.test_case "absent sibling key reads NULL" `Quick
      test_absent_sibling_key_reads_null;
    Alcotest.test_case "constant content" `Quick test_constant_content;
    Alcotest.test_case "mixed text + children" `Quick test_mixed_text_and_children;
    Alcotest.test_case "out-of-order stream refused" `Quick test_out_of_order_stream;
    Alcotest.test_case "all heads tie: stream position orders" `Quick test_all_heads_tie;
    Alcotest.test_case "tagger span reports full_compares" `Quick
      test_full_compares_reported;
  ]

(* Property: every plan mask produces the same document as the naive
   materialization, on a random small database. *)
let prop_all_plans_correct =
  QCheck.Test.make ~name:"random plan = naive materialization" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound 511) (oneofl [ `Q1; `Q2 ])))
    (fun (mask, q) ->
      let view = match q with `Q1 -> Matrix.q1 | `Q2 -> Matrix.q2 in
      Matrix.(check [ slice view (tpch 0.1) ~masks:(only [ mask ]) ]);
      true)

(* Property: the merge does not depend on how a stream is split.  A real
   stream's rows are dealt in order into k cursors (some possibly empty)
   sharing its descriptor; tagging them gives the bytes of tagging the
   one stream.  Some rows are repeated whole, and some repeated with
   every non-key column changed: such a copy ties its original at every
   step, is dealt to the same cursor or a later one, and must stay
   unseen, as it is in the one stream. *)
let split_sources =
  lazy
    (let db = Tpch.Gen.generate (Tpch.Gen.config 0.05) in
     List.concat_map
       (fun text ->
         let p = Middleware.prepare_text db text in
         let tree = p.Middleware.tree in
         List.map
           (fun reduce ->
             let desc, rows = single_stream ~reduce p in
             let keys =
               Array.to_list tree.View_tree.nodes
               |> List.concat_map (fun (n : View_tree.node) -> n.View_tree.key_vars)
             in
             let non_key = function
               | Sql_gen.Var_col v -> not (List.mem v keys)
               | Sql_gen.Level_col _ -> false
             in
             (tree, desc, rows, Array.map non_key desc.Sql_gen.cols))
           [ false; true ])
       [ Queries.query1_text; Queries.query2_text ]
     |> Array.of_list)

let prop_split_invariant =
  QCheck.Test.make ~name:"merge of a split stream = the stream" ~count:60
    (QCheck.make
       ~print:(fun (src, k, seed) -> Printf.sprintf "source %d, k=%d, seed %d" src k seed)
       QCheck.Gen.(triple (int_bound 3) (int_range 1 9) (int_bound 1_000_000)))
    (fun (src, k, seed) ->
      let tree, desc, rows, non_key = (Lazy.force split_sources).(src) in
      let rng = Random.State.make [| seed |] in
      let active = Array.init k (fun i -> i = 0 || Random.State.bool rng) in
      (* an active cursor at or after [from] *)
      let rec pick from =
        let c = from + Random.State.int rng (k - from) in
        if active.(c) then c else pick from
      in
      let variant (t : R.Tuple.t) =
        Array.mapi (fun i v -> if non_key.(i) then R.Value.String "copy" else v) t
      in
      let n = Random.State.int rng (List.length rows + 1) in
      let whole = ref [] and parts = Array.make k [] in
      let add c t =
        whole := t :: !whole;
        parts.(c) <- t :: parts.(c)
      in
      List.iteri
        (fun i t ->
          if i < n then begin
            let c = pick 0 in
            add c t;
            match Random.State.int rng 8 with
            | 0 -> add (pick 0) (Array.copy t)
            | 1 -> add (pick c) (variant t)
            | _ -> ()
          end)
        rows;
      let tag parts = Tagger.to_string_cursors tree (cursors_of desc parts) in
      if tag [ List.rev !whole ] <> tag (List.map List.rev (Array.to_list parts)) then
        QCheck.Test.fail_report "split stream tags differently";
      true)

let props = [ prop_all_plans_correct; prop_split_invariant ]
