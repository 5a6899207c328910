(* Chrome trace-event exporter.

   Renders the global collectors — the span tree and the flight
   recorder's events — as Chrome trace-event JSON,
   loadable in Perfetto or chrome://tracing.  The format is the JSON
   Object Format variant: {"traceEvents": [...]} with

   - one complete event ("ph":"X") per finished span, microsecond
     timestamps rebased to the trace's first span (same rebasing as the
     JSONL exporter, so the two files describe the same timeline);
   - one instant event ("ph":"i") per flight-recorder event.

   The pipeline is single-threaded, so everything lands on pid 1 /
   tid 1 and the viewer nests spans purely by interval containment. *)

let pid = 1
let tid = 1

(* ns offset -> microsecond float, the unit "ts"/"dur" are defined in *)
let us_of_ns ns = Int64.to_float ns /. 1e3

let span_event ~base_ns (s : Span.t) =
  Json.Obj
    [
      ("name", Json.String s.Span.name);
      ("cat", Json.String "span");
      ("ph", Json.String "X");
      ("ts", Json.Float (us_of_ns (Int64.sub s.Span.start_ns base_ns)));
      ("dur", Json.Float (Span.duration_ms s *. 1e3));
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Attr.to_json (Span.attrs s));
    ]

let instant_event ~base_ns (e : Event.t) =
  Json.Obj
    [
      ("name", Json.String e.Event.name);
      ("cat", Json.String ("event," ^ Event.level_name e.Event.level));
      ("ph", Json.String "i");
      ( "ts",
        Json.Float
          (Float.max 0.0 (us_of_ns (Int64.sub e.Event.ts_ns base_ns))) );
      ("s", Json.String "t"); (* thread-scoped instant marker *)
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ( "args",
        Attr.to_json
          (Attr.string "level" (Event.level_name e.Event.level) :: e.Event.attrs)
      );
    ]

let process_name_event =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String "silkroute") ]);
    ]

let trace_json () =
  let spans = Span.spans () in
  let events = Event.events () in
  let base_ns =
    match (spans, events) with
    | s :: _, _ -> s.Span.start_ns
    | [], e :: _ -> e.Event.ts_ns
    | [], [] -> 0L
  in
  let span_events =
    List.filter_map
      (fun (s : Span.t) ->
        (* an open span has no duration; the viewer cannot render it *)
        if s.Span.finished then Some (span_event ~base_ns s) else None)
      spans
  in
  let instant_events = List.map (instant_event ~base_ns) events in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_name_event :: span_events) @ instant_events) );
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string () = Json.to_string (trace_json ())

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ());
      output_char oc '\n')
