(* XML serialization: escaping, compact and indented rendering, and a
   byte-counting sink so the experiments can report document sizes
   without materializing strings. *)

let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '\'' -> "&apos;"
  | '"' -> "&quot;"
  | c -> String.make 1 c

(* Position of the first XML-special character of [s] at or after [i],
   or [String.length s]. *)
let rec next_special s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '<' | '>' | '&' | '\'' | '"' -> i
    | _ -> next_special s (i + 1)

(* Both escapers copy each run of plain characters with one call and
   allocate nothing. *)
let rec escape_from buf s i =
  let j = next_special s i in
  Buffer.add_substring buf s i (j - i);
  if j < String.length s then begin
    Buffer.add_string buf (entity s.[j]);
    escape_from buf s (j + 1)
  end

let escape_into buf s = escape_from buf s 0

let rec output_from oc s i =
  let j = next_special s i in
  output_substring oc s i (j - i);
  if j < String.length s then begin
    output_string oc (entity s.[j]);
    output_from oc s (j + 1)
  end

let output_escaped oc s = output_from oc s 0

let rec write_node buf = function
  | Xml.Text s -> escape_into buf s
  | Xml.Element e -> write_element buf e

and write_element buf (e : Xml.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape_into buf v;
      Buffer.add_char buf '"')
    e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
      Buffer.add_char buf '>';
      List.iter (write_node buf) children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'

let to_string doc =
  let buf = Buffer.create 1024 in
  write_element buf (Xml.root doc);
  Buffer.contents buf

let rec write_indented buf level (n : Xml.node) =
  let pad () =
    for _ = 1 to level * 2 do
      Buffer.add_char buf ' '
    done
  in
  match n with
  | Xml.Text s ->
      pad ();
      escape_into buf s;
      Buffer.add_char buf '\n'
  | Xml.Element e -> (
      pad ();
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape_into buf v;
          Buffer.add_char buf '"')
        e.attrs;
      match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [ Xml.Text s ] ->
          Buffer.add_char buf '>';
          escape_into buf s;
          Buffer.add_string buf "</";
          Buffer.add_string buf e.tag;
          Buffer.add_string buf ">\n"
      | children ->
          Buffer.add_string buf ">\n";
          List.iter (write_indented buf (level + 1)) children;
          pad ();
          Buffer.add_string buf "</";
          Buffer.add_string buf e.tag;
          Buffer.add_string buf ">\n")

let to_pretty_string doc =
  let buf = Buffer.create 1024 in
  write_indented buf 0 (Xml.Element (Xml.root doc));
  Buffer.contents buf

let byte_size doc = String.length (to_string doc)
