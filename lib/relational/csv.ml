(* CSV import/export for loading real data into the catalog.

   RFC-4180-ish: comma separators, double-quote quoting with "" escapes,
   both \n and \r\n row terminators.  Values are parsed according to the
   target table's column types; empty unquoted fields in nullable columns
   load as NULL. *)

exception Csv_error of string * int (* message, 1-based row *)

(* [source] (a file name, usually) prefixes every diagnostic so a load
   failure in a multi-file import names the offending file. *)
let fail ?source row fmt =
  Format.kasprintf
    (fun m ->
      let m =
        match source with None -> m | Some s -> Printf.sprintf "%s: %s" s m
      in
      raise (Csv_error (m, row)))
    fmt

let () =
  Printexc.register_printer (function
    | Csv_error (msg, row) ->
        Some (Printf.sprintf "Csv.Csv_error (row %d: %s)" row msg)
    | _ -> None)

(* --- low-level record reader -------------------------------------------- *)

(* Fields carry a [quoted] flag so the typed loader can distinguish an
   unquoted empty field (NULL) from a quoted empty string. *)
let parse_rows_tagged (text : string) : (string * bool) list list =
  let n = String.length text in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let field_quoted = ref false in
  let push_field () =
    fields := (Buffer.contents buf, !field_quoted) :: !fields;
    Buffer.clear buf;
    field_quoted := false
  in
  let push_row () =
    push_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = text.[!i] in
    if !in_quotes then
      if c = '"' then
        if !i + 1 < n && text.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          i := !i + 2
        end
        else begin
          in_quotes := false;
          incr i
        end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    else begin
      (match c with
      | '"' ->
          in_quotes := true;
          field_quoted := true
      | ',' -> push_field ()
      | '\n' -> push_row ()
      | '\r' -> () (* swallow; \n follows in \r\n *)
      | c -> Buffer.add_char buf c);
      incr i
    end
  done;
  if Buffer.length buf > 0 || !fields <> [] || !field_quoted then push_row ();
  (* a trailing fully-empty record (final newline) is not a row *)
  List.rev !rows |> List.filter (fun r -> r <> [ ("", false) ])

(* --- typed loading ------------------------------------------------------- *)

(* Strict decimal integer: optional sign then decimal digits only.
   [int_of_string] alone would also accept OCaml literal extensions —
   hex/octal/binary prefixes ([0x1F]) and underscore separators
   ([1_000]) — which are not CSV data anyone intends. *)
let strict_int text =
  let n = String.length text in
  let digits_from i =
    i < n
    &&
    let ok = ref true in
    for j = i to n - 1 do
      match text.[j] with '0' .. '9' -> () | _ -> ok := false
    done;
    !ok
  in
  let well_formed =
    match (if n > 0 then text.[0] else ' ') with
    | '+' | '-' -> digits_from 1
    | '0' .. '9' -> digits_from 0
    | _ -> false
  in
  if well_formed then int_of_string_opt text else None

let value_of_field ?source row (col : Schema.column) (text, quoted) : Value.t =
  let bad () =
    fail ?source row "row %d, column %s: bad %s value %S" row
      col.Schema.col_name
      (Value.ty_name col.Schema.col_ty)
      text
  in
  if text = "" && not quoted then
    if col.Schema.nullable then Value.Null
    else
      fail ?source row "row %d: empty value in NOT NULL column %s" row
        col.Schema.col_name
  else
    match col.Schema.col_ty with
    | Value.TInt -> (
        match strict_int (String.trim text) with
        | Some n -> Value.Int n
        | None -> bad ())
    | Value.TFloat -> (
        match float_of_string_opt (String.trim text) with
        | Some x -> Value.Float x
        | None -> bad ())
    | Value.TBool -> (
        match String.lowercase_ascii (String.trim text) with
        | "true" | "t" | "1" -> Value.Bool true
        | "false" | "f" | "0" -> Value.Bool false
        | _ -> bad ())
    | Value.TDate -> (
        match strict_int (String.trim text) with
        | Some n -> Value.Date n
        | None -> bad ())
    | Value.TString -> Value.String text

(* Load CSV [text] into [table].  With [header] (default), the first row
   names the columns and may reorder or omit nullable ones. *)
let load ?source ?(header = true) (db : Database.t) (table : string)
    (text : string) : int =
  let schema = Database.schema db table in
  let rows = parse_rows_tagged text in
  let col_order, data_rows =
    match (header, rows) with
    | true, hdr :: rest ->
        let names = List.map fst hdr in
        let cols =
          List.map
            (fun name ->
              match
                List.find_opt
                  (fun (c : Schema.column) -> c.Schema.col_name = name)
                  schema.Schema.columns
              with
              | Some c -> c
              | None ->
                  fail ?source 1 "header row: table %s has no column %s" table
                    name)
            names
        in
        (cols, rest)
    | true, [] -> (schema.Schema.columns, [])
    | false, rows -> (schema.Schema.columns, rows)
  in
  let tuples =
    List.mapi
      (fun idx fields ->
        let row = idx + if header then 2 else 1 in
        if List.length fields <> List.length col_order then
          fail ?source row "row %d: expected %d fields, got %d" row
            (List.length col_order) (List.length fields);
        let by_name =
          List.map2 (fun (c : Schema.column) f -> (c, f)) col_order fields
        in
        Array.of_list
          (List.map
             (fun (c : Schema.column) ->
               match
                 List.find_opt (fun (c', _) -> c' == c) by_name
               with
               | Some (_, f) -> value_of_field ?source row c f
               | None ->
                   if c.Schema.nullable then Value.Null
                   else
                     fail ?source row "row %d: missing NOT NULL column %s" row
                       c.Schema.col_name)
             schema.Schema.columns))
      data_rows
  in
  Database.insert db table tuples;
  List.length tuples

(* --- export -------------------------------------------------------------- *)

let escape_field s =
  if
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let field_of_value = function
  | Value.Null -> ""
  (* a present-but-empty string must stay distinguishable from NULL *)
  | Value.String "" -> "\"\""
  | Value.String s -> escape_field s
  | Value.Int n -> string_of_int n
  | Value.Float f -> Printf.sprintf "%h" f
  | Value.Bool b -> if b then "true" else "false"
  | Value.Date d -> string_of_int d

let export (db : Database.t) (table : string) : string =
  let schema = Database.schema db table in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (Schema.column_names schema));
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (Array.to_list (Array.map field_of_value row)));
      Buffer.add_char buf '\n')
    (Database.raw_data db table);
  Buffer.contents buf
