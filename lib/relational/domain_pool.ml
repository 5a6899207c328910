(* A bounded pool of worker domains with task submit/await.

   The pool exists for one job: running the independent SQL fragments of
   a partitioned plan concurrently (the EXCHANGE shape — per-stream
   parallelism below a deterministic merge).  Tasks go into a FIFO queue
   guarded by a mutex/condition pair; each worker domain loops dequeuing
   and running tasks until the pool is shut down AND the queue is dry,
   so no submitted task is ever dropped.  A task's result — normal or
   exceptional — is stored in its handle; [await] blocks on the handle's
   own condition variable and re-raises task exceptions with their
   original backtrace.  Worker domains never die to a task exception.

   [create ~domains] with [domains <= 1] builds an inline pool: [submit]
   runs the task immediately on the calling thread.  That makes the
   sequential case *exactly* the unpooled code path — same execution
   order, no domain spawn — so a fan-out is written once, over whatever
   pool the caller owns ([inline] when it owns none).

   Observability: [submit] on a pool with workers captures the caller's
   span context and the worker re-installs it around the task, so spans
   opened inside a task parent under the span that submitted it, not
   under a detached root.  An inline task already runs inside that
   context and needs neither step.  A worker also measures its task's
   promoted and major words, and [await] adds them to the awaiting
   domain's ([Obs.Profile.add_awaited]). *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a handle = {
  hm : Mutex.t;
  hcv : Condition.t;
  mutable st : 'a state;
  mutable words : float * float;
      (* promoted and major words a worker task took, handed to the
         domain that awaits it *)
}

type t = {
  qm : Mutex.t;
  qcv : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list; (* [] for an inline pool *)
  size : int;
}

let size p = p.size

(* Tasks submitted but not yet picked up by a worker.  Inline pools run
   tasks synchronously in [submit], so their queue is always empty. *)
let queue_depth p = Mutex.protect p.qm (fun () -> Queue.length p.jobs)

let fill ?(words = (0.0, 0.0)) h result =
  Mutex.protect h.hm (fun () ->
      h.st <- result;
      h.words <- words);
  Condition.broadcast h.hcv

let outcome task =
  match task () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

(* A worker measures its task's words, which its own domain's counters
   hold and the awaiting domain's do not. *)
let run_measured h task =
  let p0, m0 = Obs.Profile.words () in
  let result = outcome task in
  let p1, m1 = Obs.Profile.words () in
  fill ~words:(p1 -. p0, m1 -. m0) h result

let worker_loop p () =
  let rec loop () =
    let job =
      Mutex.protect p.qm (fun () ->
          while Queue.is_empty p.jobs && not p.closed do
            Condition.wait p.qcv p.qm
          done;
          (* drain remaining jobs even after close *)
          if Queue.is_empty p.jobs then None else Some (Queue.pop p.jobs))
    in
    match job with
    | Some job ->
        job ();
        loop ()
    | None -> ()
  in
  loop ()

let shutdown p =
  Mutex.protect p.qm (fun () -> p.closed <- true);
  Condition.broadcast p.qcv;
  List.iter Domain.join p.workers

(* The runtime's hard limit on domains, the calling one included
   ([Max_domains] in OCaml 5.1's caml/domain.h on 64-bit hosts), so a
   pool holds at most one less.  The runtime exposes no query for it. *)
let max_domains = 128

let create ~domains =
  if domains < 1 then
    invalid_arg
      (Printf.sprintf "Domain_pool.create: domains must be >= 1, got %d"
         domains);
  if domains >= max_domains then
    invalid_arg
      (Printf.sprintf
         "Domain_pool.create: domains must be at most %d (the runtime \
          allows %d domains, the calling one included), got %d"
         (max_domains - 1) max_domains domains);
  let p =
    {
      qm = Mutex.create ();
      qcv = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [];
      size = domains;
    }
  in
  (* Mutate [workers] rather than copying the record: a [{p with ...}]
     copy would leave the spawned workers watching the *old* record's
     [closed] field, so [shutdown] on the copy would never wake them.
     If a spawn still fails (other domains already running), the workers
     spawned so far are shut down before the failure propagates. *)
  if domains > 1 then
    for _ = 1 to domains do
      match Domain.spawn (worker_loop p) with
      | d -> p.workers <- d :: p.workers
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          shutdown p;
          Printexc.raise_with_backtrace e bt
    done;
  p

let inline = create ~domains:1

let submit p task =
  let h =
    {
      hm = Mutex.create ();
      hcv = Condition.create ();
      st = Pending;
      words = (0.0, 0.0);
    }
  in
  (match p.workers with
  | [] ->
      (* inline pool: the sequential path, unchanged — the task runs on
         the caller's thread, inside the caller's span context *)
      fill h (outcome task)
  | _ :: _ ->
      let ctx = Obs.Span.context () in
      let task () = Obs.Span.with_context ctx task in
      Mutex.protect p.qm (fun () ->
          if p.closed then
            invalid_arg "Domain_pool.submit: pool is shut down";
          Queue.push (fun () -> run_measured h task) p.jobs);
      Condition.signal p.qcv);
  h

let await h =
  let st, words =
    Mutex.protect h.hm (fun () ->
        (* match, not (=): polymorphic compare would inspect the task's
           result value, which may contain closures *)
        while match h.st with Pending -> true | _ -> false do
          Condition.wait h.hcv h.hm
        done;
        let words = h.words in
        h.words <- (0.0, 0.0);
        (h.st, words))
  in
  Obs.Profile.add_awaited words;
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending ->
      (* the wait loop above only exits on Done/Failed; reaching here
         means the handle state machine itself is broken *)
      invalid_arg
        "Domain_pool.await: task handle still Pending after its condition \
         was signalled"

let with_pool ~domains f =
  let p = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
