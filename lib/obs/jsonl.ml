(* JSON-Lines exporter.

   One JSON object per line, "type" discriminated: spans first (start
   order), then events (emission order), then profile nodes.  An
   optional "experiment" field tags every record, so bench runs can
   concatenate experiments into one file and still diff stage-level
   breakdowns run against run.  Attr values are
   encoded by the shared Attr.to_json, the same encoder Chrometrace
   uses. *)

let tagged experiment fields =
  match experiment with
  | None -> fields
  | Some e -> ("experiment", Json.String e) :: fields

(* [start_ns] is rebased to [base_ns] (the trace's first span) so two
   runs of the same pipeline produce byte-diffable files: absolute
   monotonic readings differ on every run, offsets within a trace do
   not (exactly, under the deterministic test clock; closely enough to
   survive a textual diff of record *structure* otherwise). *)
let span_json ?experiment ?(base_ns = 0L) (s : Span.t) =
  Json.Obj
    (tagged experiment
       [
         ("type", Json.String "span");
         ("id", Json.Int s.Span.id);
         ( "parent",
           match s.Span.parent with
           | None -> Json.Null
           | Some p -> Json.Int p );
         ("depth", Json.Int s.Span.depth);
         ("name", Json.String s.Span.name);
         ("start_ns", Json.Int (Int64.to_int (Int64.sub s.Span.start_ns base_ns)));
         ("dur_ms", Json.Float (Span.duration_ms s));
         ("attrs", Attr.to_json (Span.attrs s));
       ])

(* Event timestamps are rebased like span starts (and clamped at zero in
   case an event predates the trace's first span), so two runs under the
   deterministic test clock stay byte-diffable. *)
let event_json ?experiment ?(base_ns = 0L) (e : Event.t) =
  Json.Obj
    (tagged experiment
       [
         ("type", Json.String "event");
         ("seq", Json.Int e.Event.seq);
         ( "ts_ns",
           Json.Int
             (max 0 (Int64.to_int (Int64.sub e.Event.ts_ns base_ns))) );
         ("level", Json.String (Event.level_name e.Event.level));
         ("name", Json.String e.Event.name);
         ("attrs", Attr.to_json e.Event.attrs);
       ])

let profile_json ?experiment ~path (n : Profile.node) =
  Json.Obj
    (tagged experiment
       [
         ("type", Json.String "profile");
         ("path", Json.String (String.concat "/" path));
         ("name", Json.String n.Profile.name);
         ("calls", Json.Int n.Profile.calls);
         ("total_ms", Json.Float n.Profile.total_ms);
         ("self_ms", Json.Float n.Profile.self_ms);
         ("rows", Json.Int n.Profile.rows);
         ("work", Json.Int n.Profile.work);
         ("bytes", Json.Int n.Profile.bytes);
         ("minor_words", Json.Float n.Profile.minor_words);
         ("major_words", Json.Float n.Profile.major_words);
       ])

let to_lines ?experiment () =
  let spans = Span.spans () in
  let events = Event.events () in
  let base_ns =
    match (spans, events) with
    | s :: _, _ -> s.Span.start_ns
    | [], e :: _ -> e.Event.ts_ns
    | [], [] -> 0L
  in
  let span_lines =
    List.map (fun s -> Json.to_string (span_json ?experiment ~base_ns s)) spans
  in
  let event_lines =
    List.map
      (fun e -> Json.to_string (event_json ?experiment ~base_ns e))
      events
  in
  let profile_lines =
    List.rev
      (Profile.fold
         (fun acc path n ->
           Json.to_string (profile_json ?experiment ~path n) :: acc)
         []
         (Profile.of_spans spans))
  in
  span_lines @ event_lines @ profile_lines

let write_channel ?experiment oc =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (to_lines ?experiment ())

let write_file ?experiment path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      write_channel ?experiment oc)
