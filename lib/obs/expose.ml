(* Prometheus-style text exposition: the wire format of the server's
   telemetry endpoint.

   A sample is one (name, labels, value) triple; [render] prints the
   classic exposition text — `# TYPE` comments, `name{k="v"} value`
   lines — and [parse] reads it back, so the monitor CLI and the smoke
   validator consume exactly what the server produces.  [summary] turns
   one histogram into its p50/p90/p99 quantile samples plus
   `_sum`/`_count`. *)

type kind = Counter | Gauge | Summary

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Summary -> "summary"

type sample = {
  s_name : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : float;
}

let sample ?(labels = []) kind name value =
  { s_name = name; s_kind = kind; s_labels = labels; s_value = value }

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Values print as integers when they are integers (counter readability)
   and with enough digits to round-trip otherwise. *)
let value_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let key_of s =
  match s.s_labels with
  | [] -> s.s_name
  | labels ->
      Printf.sprintf "%s{%s}" s.s_name
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

let render samples =
  let buf = Buffer.create 4096 in
  let last_typed = ref "" in
  List.iter
    (fun s ->
      (* one TYPE comment per family; quantile/sum/count samples of a
         summary share the family name *)
      let family =
        match s.s_kind with
        | Summary ->
            let n = s.s_name in
            if Filename.check_suffix n "_sum" then Filename.chop_suffix n "_sum"
            else if Filename.check_suffix n "_count" then
              Filename.chop_suffix n "_count"
            else n
        | _ -> s.s_name
      in
      if family <> !last_typed then begin
        Printf.bprintf buf "# TYPE %s %s\n" family (kind_name s.s_kind);
        last_typed := family
      end;
      Printf.bprintf buf "%s %s\n" (key_of s) (value_to_string s.s_value))
    samples;
  Buffer.contents buf

let summary ?(labels = []) name (h : Histogram.t) =
  let quantiles =
    match Histogram.p50_90_99 h with
    | None -> []
    | Some (p50, p90, p99) ->
        List.map
          (fun (q, v) ->
            sample ~labels:(labels @ [ ("quantile", q) ]) Summary name v)
          [ ("0.5", p50); ("0.9", p90); ("0.99", p99) ]
  in
  quantiles
  @ [
      sample ~labels Summary (name ^ "_sum") h.Histogram.sum;
      sample ~labels Summary (name ^ "_count") (float_of_int h.Histogram.n);
    ]

(* --- parsing (monitor CLI, smoke validator) ----------------------------- *)

exception Parse_error of string

type parsed = {
  values : (string * float) list;  (** keyed by [key_of]'s exact syntax *)
  types : (string * string) list;  (** family name -> kind string *)
}

let parse text =
  let values = ref [] and types = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: family :: kind :: [] ->
            if
              kind <> "counter" && kind <> "gauge" && kind <> "summary"
              && kind <> "histogram" && kind <> "untyped"
            then
              raise
                (Parse_error
                   (Printf.sprintf "line %d: unknown TYPE %s" lineno kind));
            types := (family, kind) :: !types
        | _ -> () (* other comments are legal and ignored *)
      end
      else
        match String.rindex_opt line ' ' with
        | None ->
            raise
              (Parse_error
                 (Printf.sprintf "line %d: no value separator in %S" lineno line))
        | Some sp -> (
            let key = String.sub line 0 sp in
            let v = String.sub line (sp + 1) (String.length line - sp - 1) in
            if key = "" then
              raise
                (Parse_error (Printf.sprintf "line %d: empty metric key" lineno));
            match float_of_string_opt v with
            | None ->
                raise
                  (Parse_error
                     (Printf.sprintf "line %d: bad sample value %S" lineno v))
            | Some f -> values := (key, f) :: !values))
    lines;
  { values = List.rev !values; types = List.rev !types }

let find parsed key = List.assoc_opt key parsed.values
