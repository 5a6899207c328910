(* Human-readable sink: a flame-style indented span tree, rendered from
   the span log, so the typical use is run-the-pipeline-then-print. *)

let bprintf = Printf.bprintf

let render_span buf (s : Span.t) =
  let label = String.make (2 * s.Span.depth) ' ' ^ s.Span.name in
  bprintf buf "%-44s %9.3fms" label (Span.duration_ms s);
  List.iter
    (fun (k, v) -> bprintf buf "  %s=%s" k (Attr.value_to_string v))
    (Span.attrs s);
  Buffer.add_char buf '\n'

let render_spans () =
  let buf = Buffer.create 1024 in
  let spans = Span.spans () in
  let roots = List.filter (fun (s : Span.t) -> s.Span.parent = None) spans in
  let total =
    List.fold_left (fun acc s -> acc +. Span.duration_ms s) 0.0 roots
  in
  bprintf buf "TRACE — %d span(s), %.3fms total\n" (List.length spans) total;
  List.iter (render_span buf) spans;
  Buffer.contents buf
