(* Rolling SLO tracker: sliding-window latency and error accounting.

   Time is divided into fixed windows of [window_ms]; the tracker keeps
   the most recent [windows] of them in a ring.  Each window holds a
   fixed-bucket latency histogram (Histogram.duration_bounds) plus an
   error count, so recording is O(1) and memory is capped at
   windows * buckets.  A window slot is lazily recycled when time
   reaches it again — no timer thread; an idle tracker simply has stale
   windows that [snapshot] ignores.

   Burn rate is the worse of two ratios over the live windows: observed
   p99 over the latency target, and observed error rate over the error
   budget.  Crossing 1.0 is a breach; the transition (not every sample)
   emits an [slo.burn] warn event, and recovery emits [slo.recover], so
   a sustained breach cannot flood the flight recorder.

   Callers supply [now_ms] (the server uses the monotonic clock), which
   keeps the window arithmetic deterministic under test clocks. *)

type config = {
  window_ms : float;  (* width of one accounting window *)
  windows : int;  (* ring size: the sliding window covers windows * window_ms *)
  target_p99_ms : float;  (* latency objective *)
  max_error_rate : float;  (* error budget as a fraction of requests *)
}

let default_config =
  {
    window_ms = 1_000.0;
    windows = 60;
    target_p99_ms = 250.0;
    max_error_rate = 0.01;
  }

type window = {
  mutable w_index : int;  (* absolute window index, -1 = never used *)
  w_latency : Histogram.t;
  mutable w_errors : int;
}

type t = {
  cfg : config;
  ring : window array;
  m : Mutex.t;
  mutable breached : bool;  (* edge detector for burn/recover events *)
}

let create ?(config = default_config) () =
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive config.window_ms) then
    invalid_arg "Slo.create: window_ms must be positive and finite";
  if config.windows < 1 then invalid_arg "Slo.create: windows must be >= 1";
  if not (positive config.target_p99_ms) then
    invalid_arg "Slo.create: target_p99_ms must be positive and finite";
  if not (positive config.max_error_rate) then
    invalid_arg "Slo.create: max_error_rate must be positive and finite";
  {
    cfg = config;
    ring =
      Array.init config.windows (fun _ ->
          {
            w_index = -1;
            w_latency = Histogram.create Histogram.duration_bounds;
            w_errors = 0;
          });
    m = Mutex.create ();
    breached = false;
  }


let window_index t now_ms = int_of_float (Float.max 0.0 now_ms /. t.cfg.window_ms)

(* The ring slot for absolute window [idx], recycled if it still holds
   an older window's data.  Called under the mutex. *)
let slot t idx =
  let w = t.ring.(idx mod Array.length t.ring) in
  if w.w_index <> idx then begin
    w.w_index <- idx;
    Histogram.clear w.w_latency;
    w.w_errors <- 0
  end;
  w

type snapshot = {
  samples : int;
  errors : int;
  error_rate : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;  (* 0 when no samples *)
  latency_burn : float;  (* p99 / target *)
  error_burn : float;  (* error_rate / budget *)
  burn_rate : float;  (* max of the two; > 1.0 = breached *)
  breached : bool;
  covered_windows : int;  (* live (non-stale) windows aggregated *)
}

(* Aggregate the live windows into one histogram + counts.  Called under
   the mutex. *)
let aggregate t now_ms =
  let idx = window_index t now_ms in
  let oldest = idx - Array.length t.ring + 1 in
  let h = Histogram.create Histogram.duration_bounds in
  let errors = ref 0 and live = ref 0 in
  Array.iter
    (fun w ->
      if w.w_index >= oldest && w.w_index <= idx && w.w_latency.Histogram.n + w.w_errors > 0
      then begin
        incr live;
        Histogram.add ~into:h w.w_latency;
        errors := !errors + w.w_errors
      end)
    t.ring;
  (h, !errors, !live)

let snapshot_locked t now_ms =
  let h, errors, live = aggregate t now_ms in
  let n = h.Histogram.n in
  let pct q =
    match Histogram.percentile h q with Some v -> v | None -> 0.0
  in
  let p50 = pct 0.50 and p90 = pct 0.90 and p99 = pct 0.99 in
  let total = n + errors in
  let error_rate =
    if total = 0 then 0.0 else float_of_int errors /. float_of_int total
  in
  let latency_burn = p99 /. t.cfg.target_p99_ms in
  let error_burn = error_rate /. t.cfg.max_error_rate in
  let burn = Float.max latency_burn error_burn in
  {
    samples = total;
    errors;
    error_rate;
    p50_ms = p50;
    p90_ms = p90;
    p99_ms = p99;
    latency_burn;
    error_burn;
    burn_rate = burn;
    breached = burn > 1.0;
    covered_windows = live;
  }

let snapshot t ~now_ms =
  Mutex.protect t.m (fun () -> snapshot_locked t now_ms)

let record t ?(error = false) ~now_ms latency_ms =
  let transition =
    Mutex.protect t.m (fun () ->
        let w = slot t (window_index t now_ms) in
        if error then w.w_errors <- w.w_errors + 1
        else Histogram.observe w.w_latency latency_ms;
        let snap = snapshot_locked t now_ms in
        let was = t.breached in
        t.breached <- snap.breached;
        if snap.breached && not was then Some (`Burn snap)
        else if was && not snap.breached then Some (`Recover snap)
        else None)
  in
  match transition with
  | Some (`Burn snap) ->
      Event.warn "slo.burn"
        ~attrs:
          [
            Attr.float "p99_ms" snap.p99_ms;
            Attr.float "target_ms" t.cfg.target_p99_ms;
            Attr.float "error_rate" snap.error_rate;
            Attr.float "burn_rate" snap.burn_rate;
            Attr.int "samples" snap.samples;
          ]
  | Some (`Recover snap) ->
      Event.info "slo.recover"
        ~attrs:
          [
            Attr.float "p99_ms" snap.p99_ms;
            Attr.float "burn_rate" snap.burn_rate;
          ]
  | None -> ()
