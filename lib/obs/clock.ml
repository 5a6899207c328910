(* Monotonic nanosecond clock with a swappable source.

   Span durations must never go negative, so the default source is the
   OS monotonic clock (CLOCK_MONOTONIC via bechamel's noalloc stub), not
   [Unix.gettimeofday]: wall clock steps backwards when NTP disciplines
   the system time, and a span straddling such a step would report a
   negative duration.  [wall] is kept for callers that want calendar
   time, and tests install a deterministic counter source so span
   timings are reproducible.

   On top of whatever source is installed, [now_ns] enforces a
   non-decreasing watermark (per source installation): even a
   misbehaving source that steps backwards cannot drive time backwards
   through the observability layer.  The watermark is an atomic with a
   CAS max-loop, so it is safe to sample from several domains. *)

type source = unit -> int64

let wall : source = fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9)
let default : source = Monotonic_clock.now (* CLOCK_MONOTONIC, in ns *)
let source = ref default

(* Highest value handed out since the source was installed. *)
let watermark = Atomic.make Int64.min_int

let set_source s =
  source := s;
  Atomic.set watermark Int64.min_int

let use_default () = set_source default

let rec now_ns () =
  let t = !source () in
  let prev = Atomic.get watermark in
  if Int64.compare t prev <= 0 then prev
  else if Atomic.compare_and_set watermark prev t then t
  else now_ns ()

let ns_to_ms ns = Int64.to_float ns /. 1e6
