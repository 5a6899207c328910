(* Human-readable sinks: a flame-style indented span tree and a metrics
   table.  Both render from the global collectors, so the typical use is
   run-the-pipeline-then-print. *)

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

let render_histogram buf (h : Metrics.histogram) =
  bprintf buf "histogram n=%d sum=%g" h.Metrics.n h.Metrics.sum;
  (match Metrics.p50_90_99 h with
  | Some (p50, p90, p99) ->
      bprintf buf " p50=%.4g p90=%.4g p99=%.4g" p50 p90 p99
  | None -> ());
  if h.Metrics.n > 0 then begin
    Buffer.add_string buf "  [";
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          if not !first then Buffer.add_char buf ' ';
          first := false;
          if i < Array.length h.Metrics.bounds then
            bprintf buf "≤%g:%d" h.Metrics.bounds.(i) c
          else bprintf buf ">%g:%d"
              h.Metrics.bounds.(Array.length h.Metrics.bounds - 1)
              c
        end)
      h.Metrics.counts;
    Buffer.add_char buf ']'
  end

let render_metrics () =
  let buf = Buffer.create 1024 in
  let ms = Metrics.snapshot () in
  bprintf buf "METRICS — %d metric(s)\n" (List.length ms);
  List.iter
    (fun (name, snap) ->
      bprintf buf "%-44s " name;
      (match snap with
      | Metrics.SCounter n -> bprintf buf "%d" n
      | Metrics.SGauge v -> bprintf buf "%g" v
      | Metrics.SHistogram h -> render_histogram buf h);
      Buffer.add_char buf '\n')
    ms;
  Buffer.contents buf
