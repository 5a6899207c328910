(* Structured event log with a flight recorder.

   Spans answer "where did the time go"; events answer "what happened" —
   a retry fired, a fault was injected, a sort spilled, a fragment cost
   came from the planner cache.  Each event is a leveled, timestamped
   record with the same typed attrs spans use.

   Storage is a bounded ring buffer (the flight recorder): emission is
   O(1), memory is capped, and when something goes badly wrong — a plan
   timeout, a fatal backend error — the instrumentation site calls
   [dump] and the last [capacity] events are handed to the sink (stderr
   by default), newest context included, oldest long-forgotten noise
   evicted.  Everything is gated on the Control switch, so with
   observability off an emit site costs one boolean test.

   The module is also the one account of event counts: how many were
   recorded at each level, how many the ring evicted, how many dumps
   fired.

   Domain safety: one mutex guards the ring (buffer, head, live, seq,
   per-level counts), with the timestamp sampled inside the critical
   section so the ring — and therefore [events ()] — stays in global
   emission order even when worker domains race to emit. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type t = {
  seq : int; (* monotonic emission index, survives eviction *)
  ts_ns : int64;
  level : level;
  name : string;
  attrs : Attr.t;
}

(* --- ring buffer --------------------------------------------------------- *)

let default_capacity = 256
let ring_lock = Mutex.create ()
let buf : t option array ref = ref (Array.make default_capacity None)
let head = ref 0 (* next write slot *)
let live = ref 0 (* live entries, <= capacity *)
let seq = ref 0 (* total recorded (evicted included) *)
let per_level = Array.make 4 0 (* recorded, by [level_rank] *)
let threshold = ref Debug

let set_capacity n =
  if n < 1 then invalid_arg "Event.set_capacity: capacity must be >= 1";
  Mutex.protect ring_lock (fun () ->
      buf := Array.make n None;
      head := 0;
      live := 0)

let set_threshold l = threshold := l

let emit ?(attrs = []) level name =
  if Control.is_enabled () && level_rank level >= level_rank !threshold then begin
    (* Request-scoped base attrs (the trace id) ride on every event the
       request produces, same as on its spans.  Sampling deliberately
       does NOT gate events: a sampled-out request keeps its trace id in
       the flight recorder even though it records no spans. *)
    let attrs =
      match Span.base_attrs () with [] -> attrs | base -> base @ attrs
    in
    Mutex.protect ring_lock (fun () ->
        let e = { seq = !seq; ts_ns = Clock.now_ns (); level; name; attrs } in
        incr seq;
        per_level.(level_rank level) <- per_level.(level_rank level) + 1;
        let b = !buf in
        b.(!head) <- Some e;
        head := (!head + 1) mod Array.length b;
        if !live < Array.length b then incr live)
  end

let debug ?attrs name = emit ?attrs Debug name
let info ?attrs name = emit ?attrs Info name
let warn ?attrs name = emit ?attrs Warn name
let error ?attrs name = emit ?attrs Error name

(* Live ring contents, oldest first. *)
let events () =
  Mutex.protect ring_lock (fun () ->
      let b = !buf in
      let cap = Array.length b in
      let out = ref [] in
      for i = 0 to !live - 1 do
        (* newest is at head-1; walk backwards and cons *)
        match b.((!head - 1 - i + (2 * cap)) mod cap) with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      !out)

let recorded () = Mutex.protect ring_lock (fun () -> !seq)
let count level = Mutex.protect ring_lock (fun () -> per_level.(level_rank level))
let dropped () = Mutex.protect ring_lock (fun () -> !seq - !live)

(* --- flight-recorder dump ------------------------------------------------ *)

type dump = { reason : string; dumped : t list }

let render (d : dump) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "FLIGHT RECORDER — reason: %s, %d event(s) (%d evicted)\n"
    d.reason (List.length d.dumped) (dropped ());
  let base =
    match d.dumped with [] -> 0L | e :: _ -> e.ts_ns
  in
  List.iter
    (fun e ->
      Printf.bprintf buf "  #%-4d %+9.3fms %-5s %s" e.seq
        (Clock.ns_to_ms (Int64.sub e.ts_ns base))
        (level_name e.level) e.name;
      List.iter
        (fun (k, v) -> Printf.bprintf buf " %s=%s" k (Attr.value_to_string v))
        e.attrs;
      Buffer.add_char buf '\n')
    d.dumped;
  Buffer.contents buf

let default_sink d = prerr_string (render d)
let sink = ref default_sink
let set_dump_sink f = sink := f

(* Atomic, not a plain ref: dumps fire from whichever domain hits the
   catastrophic condition, and two domains dumping concurrently would
   lose an increment through a plain [incr] (read-modify-write race). *)
let dumps = Atomic.make 0

let dump ~reason =
  if Control.is_enabled () then begin
    Atomic.incr dumps;
    !sink { reason; dumped = events () }
  end

let dump_count () = Atomic.get dumps

let reset () =
  Mutex.protect ring_lock (fun () ->
      buf := Array.make default_capacity None;
      head := 0;
      live := 0;
      seq := 0;
      Array.fill per_level 0 (Array.length per_level) 0);
  threshold := Debug;
  sink := default_sink;
  Atomic.set dumps 0
