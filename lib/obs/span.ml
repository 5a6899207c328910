(* Span-based tracing.

   A span covers one pipeline stage or operator; spans nest by dynamic
   extent ([with_span] inside [with_span]), forming a tree recorded in
   start (pre-) order.  When the Control switch is off, [with_span] runs
   the thunk directly.

   Thread and domain safety: the stack of open spans is per-thread, so
   worker domains and the server's session threads (several threads of
   one domain) nest independently, while span ids and the log of all
   spans are shared and guarded by one mutex.  The clock is sampled
   inside the same critical section that appends to the log, so the log
   stays in global start order even when threads race to open spans —
   the parent-before-child and rebased-monotonic invariants the JSONL
   exporter promises survive multi-domain aggregation.  A worker thread
   has an empty stack of its own; [with_context] plants the submitting
   thread's innermost span as the parenting base, so a task's spans land
   under the span that spawned it (Domain_pool does this on every task
   it queues for a worker domain).  The log is the one account of span
   durations: the profile's percentiles are read from it. *)

type t = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable attr_rev : Attr.t; (* reverse insertion order *)
  mutable finished : bool;
  (* GC telemetry: the open snapshot lives in these fields until
     [finish] replaces it with the delta over the span, so an extra
     snapshot record per span is never allocated.  Meaningful only once
     [finished]. *)
  mutable gc_minor_words : float;
  mutable gc_major_words : float;
}

(* Swappable allocation counter, [Clock.set_source]-style: tests install
   a deterministic counter so GC deltas are reproducible.  The default
   reads two cheap counters of the calling domain, on which a span opens
   and closes: minor words from [Gc.minor_words], which is exact, and
   major words (promotions included) from [Gc.counters], whose minor
   words are not exact in OCaml 5.1. *)
let default_gc_source () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

let gc_source = ref default_gc_source
let set_gc_source f = gc_source := f
let use_default_gc_source () = gc_source := default_gc_source

(* Shared collector state: id counter and log, one mutex. *)
let log_mutex = Mutex.create ()
let next_id = ref 0
let log : t list ref = ref [] (* every span, reverse start order *)

(* Per-thread state: the stack of open spans, the parenting base a pool
   installs around a task ([with_context]), and the request scope
   [with_request] installs: the base attributes stamped onto every span
   and event (the trace id), the head-sampling flag (a sampled-out
   request records no spans at all) and the request's stage clock.

   It lives in a table keyed by [Thread.id] (unique across domains),
   under [locals_mutex]; only the owning thread touches an entry's
   fields.  A thread has an entry only while it is inside a [scoped]
   call, so the table never grows with the threads (or connections)
   served over a process's life. *)
type local = {
  mutable stack : t list;
  mutable base : (int * int) option;
  mutable base_attrs : Attr.t;
  mutable sampled : bool;
  mutable clock : Stage.clock option;
  mutable scopes : int;
}

let locals : (int, local) Hashtbl.t = Hashtbl.create 16
let locals_mutex = Mutex.create ()
let self () = Thread.id (Thread.self ())

(* The calling thread's state, if it is inside a scope. *)
let find () =
  let id = self () in
  Mutex.protect locals_mutex (fun () -> Hashtbl.find_opt locals id)

(* Runs [f] on the calling thread's state, creating it if needed.  On
   exit the base, base attributes, sampling flag and clock are restored,
   and the outermost scope drops the entry. *)
let scoped f =
  let id = self () in
  let l =
    Mutex.protect locals_mutex (fun () ->
        match Hashtbl.find_opt locals id with
        | Some l ->
            l.scopes <- l.scopes + 1;
            l
        | None ->
            let l =
              {
                stack = [];
                base = None;
                base_attrs = [];
                sampled = true;
                clock = None;
                scopes = 1;
              }
            in
            Hashtbl.replace locals id l;
            l)
  in
  let base = l.base and base_attrs = l.base_attrs and sampled = l.sampled in
  let clock = l.clock in
  Fun.protect
    ~finally:(fun () ->
      l.base <- base;
      l.base_attrs <- base_attrs;
      l.sampled <- sampled;
      l.clock <- clock;
      Mutex.protect locals_mutex (fun () ->
          l.scopes <- l.scopes - 1;
          if l.scopes = 0 then Hashtbl.remove locals id))
    (fun () -> f l)

let base_attrs () = match find () with Some l -> l.base_attrs | None -> []
let sampled () = match find () with Some l -> l.sampled | None -> true

(* The innermost open span of the calling thread. *)
let top () =
  match find () with Some { stack = s :: _; _ } -> Some s | _ -> None

let with_request ~trace_id ~sampled clock f =
  scoped (fun l ->
      l.base_attrs <- l.base_attrs @ [ Attr.string "trace_id" trace_id ];
      l.sampled <- sampled;
      l.clock <- Some clock;
      f ())

(* A context carries everything a worker thread must inherit to keep a
   request's telemetry coherent across the submit boundary: the adopting
   span (id, depth), the request's base attributes (trace id), its
   sampling decision and its stage clock. *)
type context = {
  c_parent : (int * int) option;
  c_attrs : Attr.t;
  c_sampled : bool;
  c_clock : Stage.clock option;
}

(* The position of a thread outside every scope. *)
let no_context =
  { c_parent = None; c_attrs = []; c_sampled = true; c_clock = None }

let context () =
  match find () with
  | None -> no_context
  | Some l ->
      let parent =
        match l.stack with s :: _ -> Some (s.id, s.depth) | [] -> l.base
      in
      {
        c_parent = parent;
        c_attrs = l.base_attrs;
        c_sampled = l.sampled;
        c_clock = l.clock;
      }

let with_context ctx f =
  scoped (fun l ->
      l.base <- ctx.c_parent;
      l.base_attrs <- ctx.c_attrs;
      l.sampled <- ctx.c_sampled;
      l.clock <- ctx.c_clock;
      f ())

let tracing = Control.is_enabled

let reset () =
  Mutex.protect log_mutex (fun () ->
      next_id := 0;
      log := []);
  match find () with
  | Some l ->
      l.stack <- [];
      l.base <- None;
      l.base_attrs <- [];
      l.sampled <- true;
      l.clock <- None
  | None -> ()

let spans () = List.rev (Mutex.protect log_mutex (fun () -> !log))

(* Drop recorded spans matching [pred] from the log.  The server prunes
   each request's spans once their profile has been extracted, so a
   long-running process does not accumulate one span tree per request
   forever.  Open spans are never pruned: their [finish] still has to
   run, and dropping them would break the parent-before-child reading
   order for their children. *)
let prune pred =
  Mutex.protect log_mutex (fun () ->
      log := List.filter (fun s -> not (s.finished && pred s)) !log)

let find_attr s key = List.assoc_opt key (List.rev s.attr_rev)
let attrs s = List.rev s.attr_rev
let duration_ms s = Clock.ns_to_ms (Int64.sub s.end_ns s.start_ns)

let add key v =
  if Control.is_enabled () then
    match top () with
    | Some s -> s.attr_rev <- (key, v) :: s.attr_rev
    | None -> ()

let add_list kvs =
  if Control.is_enabled () then
    match top () with
    | Some s -> List.iter (fun kv -> s.attr_rev <- kv :: s.attr_rev) kvs
    | None -> ()

let finish l s =
  s.end_ns <- Clock.now_ns ();
  (let minor, major = !gc_source () in
   s.gc_minor_words <- minor -. s.gc_minor_words;
   s.gc_major_words <- major -. s.gc_major_words);
  s.finished <- true;
  (match l.stack with
  | top :: rest when top == s -> l.stack <- rest
  | _ ->
      (* unbalanced finish (an exception unwound through nested spans
         whose [finally] already ran): drop anything above [s] too *)
      l.stack <- List.filter (fun o -> not (o == s)) l.stack)

let with_span ?(attrs = []) name f =
  if not (Control.is_enabled () && sampled ()) then f ()
  else
    scoped @@ fun l ->
    let parent, depth =
      match l.stack with
      | p :: _ -> (Some p.id, p.depth + 1)
      | [] -> (
          match l.base with
          | Some (id, d) -> (Some id, d + 1)
          | None -> (None, 0))
    in
    let minor0, major0 = !gc_source () in
    let s =
      Mutex.protect log_mutex (fun () ->
          incr next_id;
          let s =
            {
              id = !next_id;
              parent;
              depth;
              name;
              start_ns = Clock.now_ns ();
              end_ns = 0L;
              attr_rev = List.rev_append attrs (List.rev l.base_attrs);
              finished = false;
              gc_minor_words = minor0;
              gc_major_words = major0;
            }
          in
          log := s :: !log;
          s)
    in
    l.stack <- s :: l.stack;
    Fun.protect ~finally:(fun () -> finish l s) f

(* A stage boundary: a span named after the stage, plus — when a request
   scope installed a clock — the stage's monotonic delta, added whether
   or not the request is sampled. *)
let with_stage stage f =
  match find () with
  | Some { clock = Some clock; _ } ->
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          Stage.add clock stage (Int64.to_int (Int64.sub (Clock.now_ns ()) t0)))
        (fun () -> with_span (Stage.name stage) f)
  | _ -> with_span (Stage.name stage) f
