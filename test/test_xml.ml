(* XML substrate: trees, serialization, parsing round trip, DTDs and
   validation. *)

open Xmlkit

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let doc1 () =
  Xml.document
    (Xml.element "root"
       [
         Xml.elem "a" [ Xml.text "hello" ];
         Xml.elem "b" [];
         Xml.elem "a" [ Xml.text "x < y & z" ];
       ])

let test_tree_accessors () =
  let d = doc1 () in
  Alcotest.(check int) "elements" 4 (Xml.count_elements d);
  Alcotest.(check int) "depth" 2 (Xml.depth d);
  Alcotest.(check int) "children named a" 2
    (List.length (Xml.children_named (Xml.root d) "a"));
  Alcotest.(check string) "text content" "hello"
    (Xml.text_content (List.hd (Xml.children_named (Xml.root d) "a")))

let test_equal () =
  Alcotest.(check bool) "same" true (Xml.equal (doc1 ()) (doc1 ()));
  let other = Xml.document (Xml.element "root" [ Xml.elem "a" [] ]) in
  Alcotest.(check bool) "different" false (Xml.equal (doc1 ()) other)

let test_fold () =
  let tags = Xml.fold_elements (fun acc e -> e.Xml.tag :: acc) [] (doc1 ()) in
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "a"; "root" ] tags

let test_serialize_escaping () =
  let s = Serialize.to_string (doc1 ()) in
  Alcotest.(check bool) "escaped" true (contains s "x &lt; y &amp; z")

let test_serialize_self_closing () =
  let s = Serialize.to_string (doc1 ()) in
  Alcotest.(check bool) "empty is self-closed" true (contains s "<b/>")

let test_escape () =
  let escape s =
    let buf = Buffer.create 16 in
    Serialize.escape_into buf s;
    Buffer.contents buf
  in
  Alcotest.(check string) "all five" "&lt;&gt;&amp;&apos;&quot;" (escape "<>&'\"");
  Alcotest.(check string) "runs kept" "a&lt;bc&amp;&amp;d" (escape "a<bc&&d");
  Alcotest.(check string) "plain" "plain text" (escape "plain text");
  Alcotest.(check string) "empty" "" (escape "")

let test_byte_size () =
  let d = doc1 () in
  Alcotest.(check int) "matches string" (String.length (Serialize.to_string d))
    (Serialize.byte_size d)

let test_parse_round_trip () =
  let d = doc1 () in
  let d' = Parse.parse (Serialize.to_string d) in
  Alcotest.(check bool) "round trip" true (Xml.equal d d')

let test_parse_attributes () =
  let d = Parse.parse {|<r a="1" b="x &amp; y"><c/></r>|} in
  let root = Xml.root d in
  Alcotest.(check (list (pair string string))) "attrs" [ ("a", "1"); ("b", "x & y") ]
    root.Xml.attrs

let test_parse_pretty_round_trip () =
  (* the pretty printer inserts whitespace; structure must survive modulo
     whitespace-only text nodes *)
  let d = doc1 () in
  let d' = Parse.parse (Serialize.to_pretty_string d) in
  let rec strip (e : Xml.element) =
    Xml.element ~attrs:e.attrs e.tag
      (List.filter_map
         (function
           | Xml.Text s when String.trim s = "" -> None
           | Xml.Text s -> Some (Xml.Text (String.trim s))
           | Xml.Element c -> Some (Xml.Element (strip c)))
         e.children)
  in
  Alcotest.(check bool) "same modulo whitespace" true
    (Xml.equal_element (strip (Xml.root d)) (strip (Xml.root d')))

let test_parse_errors () =
  let bad = [ "<a>"; "<a></b>"; "text"; "<a>&bogus;</a>"; "<a/><b/>" ] in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try ignore (Parse.parse s); false with Parse.Parse_error _ -> true))
    bad

let test_parse_xml_declaration () =
  let d = Parse.parse "<?xml version=\"1.0\"?><r/>" in
  Alcotest.(check string) "root" "r" (Xml.root d).Xml.tag

(* --- DTDs ------------------------------------------------------------- *)

let dtd1 () =
  Dtd.create ~root:"root"
    [
      { Dtd.el_name = "root";
        el_content = Dtd.Children [ ("a", Dtd.Plus); ("b", Dtd.Opt) ] };
      { Dtd.el_name = "a"; el_content = Dtd.Pcdata };
      { Dtd.el_name = "b"; el_content = Dtd.Children [] };
    ]

let test_dtd_create_validates_refs () =
  Alcotest.(check bool) "undeclared child" true
    (try
       ignore
         (Dtd.create ~root:"r"
            [ { Dtd.el_name = "r"; el_content = Dtd.Children [ ("zzz", Dtd.One) ] } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "undeclared root" true
    (try
       ignore (Dtd.create ~root:"zzz" [ { Dtd.el_name = "r"; el_content = Dtd.Pcdata } ]);
       false
     with Invalid_argument _ -> true)

let test_multiplicities () =
  Alcotest.(check bool) "one" true (Dtd.admits Dtd.One 1);
  Alcotest.(check bool) "one not 0" false (Dtd.admits Dtd.One 0);
  Alcotest.(check bool) "opt 0" true (Dtd.admits Dtd.Opt 0);
  Alcotest.(check bool) "opt not 2" false (Dtd.admits Dtd.Opt 2);
  Alcotest.(check bool) "plus 3" true (Dtd.admits Dtd.Plus 3);
  Alcotest.(check bool) "plus not 0" false (Dtd.admits Dtd.Plus 0);
  Alcotest.(check bool) "star 0" true (Dtd.admits Dtd.Star 0);
  Alcotest.(check string) "to_string" "*" (Dtd.multiplicity_to_string Dtd.Star);
  Alcotest.(check bool) "of_string" true (Dtd.multiplicity_of_string "+" = Dtd.Plus)

let test_validate_ok () =
  let d = Xml.document (Xml.element "root" [ Xml.elem "a" [ Xml.text "t" ] ]) in
  Alcotest.(check bool) "valid" true (Validate.is_valid (dtd1 ()) d)

let test_validate_wrong_root () =
  let d = Xml.document (Xml.element "other" []) in
  Alcotest.(check bool) "invalid" false (Validate.is_valid (dtd1 ()) d)

let test_validate_multiplicity_violation () =
  let d = Xml.document (Xml.element "root" [ Xml.elem "b" [] ]) in
  (* missing the mandatory a+ *)
  Alcotest.(check bool) "invalid" false (Validate.is_valid (dtd1 ()) d);
  let errs = Validate.validate (dtd1 ()) d in
  Alcotest.(check bool) "reports path" true
    (List.exists (fun (e : Validate.error) -> e.Validate.path = "/root") errs)

let test_validate_unexpected_element () =
  let d =
    Xml.document
      (Xml.element "root" [ Xml.elem "a" [ Xml.text "x" ]; Xml.elem "a" [];
                            Xml.elem "b" []; Xml.elem "b" [] ])
  in
  Alcotest.(check bool) "b occurs twice with opt" false
    (Validate.is_valid (dtd1 ()) d)

let test_validate_pcdata_purity () =
  let d =
    Xml.document (Xml.element "root" [ Xml.elem "a" [ Xml.elem "b" [] ] ])
  in
  Alcotest.(check bool) "element inside PCDATA" false
    (Validate.is_valid (dtd1 ()) d)

(* What validation reads of a DTD: its root and each element's
   declared content. *)
let test_dtd_declarations () =
  let d = dtd1 () in
  Alcotest.(check string) "root" "root" (Dtd.root_name d);
  Alcotest.(check bool) "root's children" true
    (Dtd.find d "root"
    = Some
        { Dtd.el_name = "root";
          el_content = Dtd.Children [ ("a", Dtd.Plus); ("b", Dtd.Opt) ] });
  Alcotest.(check bool) "PCDATA leaf" true
    (Option.map (fun e -> e.Dtd.el_content) (Dtd.find d "a") = Some Dtd.Pcdata);
  Alcotest.(check bool) "undeclared" true (Dtd.find d "zzz" = None)

let suite =
  [
    Alcotest.test_case "tree accessors" `Quick test_tree_accessors;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "preorder fold" `Quick test_fold;
    Alcotest.test_case "serialize: escaping" `Quick test_serialize_escaping;
    Alcotest.test_case "serialize: self closing" `Quick test_serialize_self_closing;
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "byte size" `Quick test_byte_size;
    Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
    Alcotest.test_case "parse attributes" `Quick test_parse_attributes;
    Alcotest.test_case "parse pretty output" `Quick test_parse_pretty_round_trip;
    Alcotest.test_case "parse rejects malformed" `Quick test_parse_errors;
    Alcotest.test_case "parse XML declaration" `Quick test_parse_xml_declaration;
    Alcotest.test_case "dtd: reference checking" `Quick test_dtd_create_validates_refs;
    Alcotest.test_case "dtd: multiplicities" `Quick test_multiplicities;
    Alcotest.test_case "validate: ok" `Quick test_validate_ok;
    Alcotest.test_case "validate: wrong root" `Quick test_validate_wrong_root;
    Alcotest.test_case "validate: multiplicity" `Quick test_validate_multiplicity_violation;
    Alcotest.test_case "validate: occurrence" `Quick test_validate_unexpected_element;
    Alcotest.test_case "validate: pcdata purity" `Quick test_validate_pcdata_purity;
    Alcotest.test_case "dtd: declarations" `Quick test_dtd_declarations;
  ]

(* Property: serialize/parse round trip on random trees. *)
let gen_doc =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  let txt = string_size ~gen:(oneofl [ 'x'; '<'; '&'; '\''; '"'; '>' ]) (int_range 1 5) in
  let rec node depth =
    if depth = 0 then map Xml.text txt
    else
      frequency
        [
          (2, map Xml.text txt);
          (3,
           map2 (fun t children -> Xml.elem t children) tag
             (list_size (int_bound 3) (node (depth - 1))));
        ]
  in
  map
    (fun children -> Xml.document (Xml.element "root" children))
    (list_size (int_bound 4) (node 2))

let prop_serialize_parse_round_trip =
  QCheck.Test.make ~name:"serialize/parse round trip" ~count:200
    (QCheck.make ~print:Serialize.to_string gen_doc) (fun d ->
      (* adjacent text nodes merge on parse; normalize both sides *)
      let rec norm (e : Xml.element) =
        let merged =
          List.fold_left
            (fun acc n ->
              match (n, acc) with
              | Xml.Text s, Xml.Text s' :: rest -> Xml.Text (s' ^ s) :: rest
              | Xml.Text s, _ -> Xml.Text s :: acc
              | Xml.Element c, _ -> Xml.Element (norm c) :: acc)
            [] e.Xml.children
          |> List.rev
          |> List.filter (function Xml.Text "" -> false | _ -> true)
        in
        Xml.element ~attrs:e.Xml.attrs e.Xml.tag merged
      in
      let d' = Parse.parse (Serialize.to_string d) in
      Xml.equal_element (norm (Xml.root d)) (norm (Xml.root d')))

let props = [ prop_serialize_parse_round_trip ]
