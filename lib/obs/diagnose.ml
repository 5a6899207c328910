(* Plan anomaly detector: the online counterpart of the offline
   calibration experiment (bench --experiment calibration).

   After execution, every physical operator carries an estimated
   (Cost.annotate) and an actual (executor) row count and cost.  The
   detector folds those into per-node q-errors

     qerr(est, act) = max(est/act, act/est)   with both clamped to >= 1

   — the standard symmetric misestimation factor (1.00 is a perfect
   estimate) — flags nodes at or above a threshold, emits one warn
   event per finding, and renders a human report: top misestimated
   operators (and every misestimated leaf, where an error enters the
   plan before the operators above inherit it), the retry/degradation counters, GC pressure per operator,
   and the hot-path percentile table.

   This module lives in lib/obs and therefore cannot see
   Physical.plan; callers (Physical.diagnose_samples, Middleware)
   flatten their plans into the generic [sample] records below. *)

type sample = {
  d_stream : string; (* stream label, e.g. the fragment root's Skolem name *)
  d_node : int; (* physical node id, unique within the stream's plan *)
  d_op : string; (* operator name: scan, hash-join, sort, ... *)
  d_est_rows : float; (* negative when the plan was never annotated *)
  d_act_rows : int; (* negative when the node was never executed *)
  d_est_cost : float;
  d_act_cost : int;
  d_est_ms : float;
  d_act_ms : float;
  d_spills : int; (* actual external-sort spill passes (sorts only) *)
  d_leaf : bool; (* reads no other operator (a scan): its error is its own *)
  d_shared : string; (* the stream whose run was replayed here, or "" *)
}

type metric = Rows | Cost

let metric_name = function Rows -> "rows" | Cost -> "cost"

type finding = {
  f_stream : string;
  f_node : int;
  f_op : string;
  f_metric : metric;
  f_est : float;
  f_act : float;
  f_qerr : float;
  f_leaf : bool;
}

let qerror ~est ~act =
  let e = Float.max 1.0 est and a = Float.max 1.0 act in
  Float.max (e /. a) (a /. e)

(* 4x off in either direction: past the noise of the System-R
   uniformity assumptions, squarely in wrong-plan territory (the PR 4
   union misestimate this engine once shipped was 130x). *)
let default_threshold = 4.0

let findings ?(threshold = default_threshold) (samples : sample list) :
    finding list =
  let one (s : sample) =
    let candidate metric est act =
      if est < 0.0 || act < 0 then None (* never annotated / never executed *)
      else
        let q = qerror ~est ~act:(float_of_int act) in
        if q >= threshold then
          Some
            {
              f_stream = s.d_stream;
              f_node = s.d_node;
              f_op = s.d_op;
              f_metric = metric;
              f_est = est;
              f_act = float_of_int act;
              f_qerr = q;
              f_leaf = s.d_leaf;
            }
        else None
    in
    List.filter_map
      (fun c -> c)
      [
        candidate Rows s.d_est_rows s.d_act_rows;
        candidate Cost s.d_est_cost s.d_act_cost;
      ]
  in
  List.concat_map one samples
  |> List.stable_sort (fun a b -> compare b.f_qerr a.f_qerr)

let emit_findings (fs : finding list) =
  List.iter
    (fun f ->
      Event.warn "diagnose.misestimate"
        ~attrs:
          [
            Attr.string "stream" f.f_stream;
            Attr.int "node" f.f_node;
            Attr.string "op" f.f_op;
            Attr.string "metric" (metric_name f.f_metric);
            Attr.float "est" f.f_est;
            Attr.float "act" f.f_act;
            Attr.float "qerr" f.f_qerr;
          ])
    fs

(* --- report -------------------------------------------------------------- *)

let bprintf = Printf.bprintf

let render_misestimates buf ~threshold ~top samples fs =
  let measured =
    List.filter (fun s -> s.d_est_rows >= 0.0 && s.d_act_rows >= 0) samples
  in
  bprintf buf
    "MISESTIMATES — %d operator(s) sampled, %d measured, %d finding(s) at \
     q-error >= %.1f\n"
    (List.length samples) (List.length measured) (List.length fs) threshold;
  if fs <> [] then begin
    bprintf buf "%-8s %6s %-24s %-6s %14s %14s %8s\n" "stream" "node" "op"
      "metric" "estimated" "actual" "q-error";
    (* the top findings, and every leaf finding below them: a stale
       scan estimate multiplies into each operator above it, whose
       q-errors can then outrank the scan that caused them *)
    List.iteri
      (fun rank f ->
        if rank < top || f.f_leaf then
          bprintf buf "%-8s %6d %-24s %-6s %14.1f %14.1f %8.2f\n" f.f_stream
            f.f_node f.f_op (metric_name f.f_metric) f.f_est f.f_act f.f_qerr)
      fs
  end

(* The measured operators that did the most work, with the time the
   planner's model predicted for them and the time they took.  Rows are
   picked and ordered by work (then stream, then node), which a run
   reproduces, so two reports of one plan list the same rows. *)
let render_times buf ~top samples =
  let timed =
    List.filter (fun s -> s.d_act_ms >= 0.0) samples
    |> List.stable_sort (fun a b ->
           match compare b.d_act_cost a.d_act_cost with
           | 0 -> compare (a.d_stream, a.d_node) (b.d_stream, b.d_node)
           | c -> c)
  in
  let total = List.fold_left (fun acc s -> acc +. s.d_act_ms) 0.0 timed in
  let predicted =
    List.fold_left (fun acc s -> acc +. Float.max 0.0 s.d_est_ms) 0.0 timed
  in
  bprintf buf
    "OPERATOR TIME — %d operator(s) measured, %.3f ms in all (predicted \
     %.3f ms); top %d by work\n"
    (List.length timed) total predicted (min top (List.length timed));
  if timed <> [] then begin
    bprintf buf "%-8s %6s %-24s %10s %14s %14s\n" "stream" "node" "op" "work"
      "predicted ms" "actual ms";
    List.iteri
      (fun rank s ->
        if rank < top then
          bprintf buf "%-8s %6d %-24s %10d %14s %14.3f\n" s.d_stream s.d_node s.d_op
            s.d_act_cost
            (if s.d_est_ms < 0.0 then "?" else Printf.sprintf "%.3f" s.d_est_ms)
            s.d_act_ms)
      timed
  end

(* The subtrees a stream replayed from another stream's run. *)
let render_shared buf samples =
  match List.filter (fun s -> s.d_shared <> "") samples with
  | [] -> ()
  | shared ->
      bprintf buf
        "SHARED — %d subtree(s) replayed from another stream's run, not \
         run or timed here\n"
        (List.length shared);
      List.iter
        (fun s ->
          bprintf buf "  %-8s node %d %-24s from %s\n" s.d_stream s.d_node
            s.d_op s.d_shared)
        shared;
      Buffer.add_char buf '\n'

let render_events buf =
  let by_level l =
    List.length (List.filter (fun e -> e.Event.level = l) (Event.events ()))
  in
  bprintf buf
    "EVENTS — %d recorded (%d retained: %d debug / %d info / %d warn / %d \
     error), %d flight-recorder dump(s)\n"
    (Event.recorded ())
    (List.length (Event.events ()))
    (by_level Event.Debug) (by_level Event.Info) (by_level Event.Warn)
    (by_level Event.Error) (Event.dump_count ())

let render_gc buf ~top profile =
  let by_alloc =
    Profile.hot ~top:max_int profile
    |> List.filter (fun (n : Profile.node) -> n.Profile.minor_words > 0.0)
    |> List.stable_sort (fun (a : Profile.node) b ->
           compare b.Profile.minor_words a.Profile.minor_words)
  in
  bprintf buf "GC PRESSURE — top %d operator(s) by minor allocation\n"
    (min top (List.length by_alloc));
  bprintf buf "%-28s %6s %12s %12s\n" "name" "calls" "minor(kw)"
    "major(kw)";
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  List.iter
    (fun (n : Profile.node) ->
      bprintf buf "%-28s %6d %12.1f %12.1f\n" n.Profile.name n.Profile.calls
        (n.Profile.minor_words /. 1000.0)
        (n.Profile.major_words /. 1000.0))
    (take top by_alloc)

let render ?(threshold = default_threshold) ?(top = 10) ~resilience samples =
  let fs = findings ~threshold samples in
  let buf = Buffer.create 2048 in
  bprintf buf "PLAN DIAGNOSTICS\n================\n";
  render_misestimates buf ~threshold ~top samples fs;
  Buffer.add_char buf '\n';
  render_times buf ~top samples;
  Buffer.add_char buf '\n';
  render_shared buf samples;
  let spilled = List.filter (fun s -> s.d_spills > 0) samples in
  if spilled <> [] then begin
    bprintf buf "SPILLS — %d operator(s) spilled to disk\n"
      (List.length spilled);
    List.iter
      (fun s ->
        bprintf buf "  %-8s node %d %-24s %d pass(es)\n" s.d_stream s.d_node
          s.d_op s.d_spills)
      spilled;
    Buffer.add_char buf '\n'
  end;
  bprintf buf "RESILIENCE — %s\n" resilience;
  render_events buf;
  Buffer.add_char buf '\n';
  let profile = Profile.capture () in
  render_gc buf ~top profile;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Profile.render_hot ~top profile);
  Buffer.contents buf

let report ?threshold ?top ~resilience samples =
  (* rendered first: the report's EVENTS count the run's events, not
     its own findings *)
  let text = render ?threshold ?top ~resilience samples in
  emit_findings (findings ?threshold samples);
  text
