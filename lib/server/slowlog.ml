(* Bounded non-blocking JSONL writer — the slow-query log's disk path.

   The request path must never block on disk: [write] appends the
   record to a bounded in-memory queue under a mutex and returns
   immediately; a dedicated writer thread drains the queue to the file
   and flushes after each batch, so records hit disk in order.  When the
   queue is full the record is dropped and counted — shedding telemetry
   beats stalling queries, and the drop counter makes the loss visible
   in the exposition. *)

type t = {
  capacity : int;
  q : Obs.Json.t Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable closed : bool;
  mutable written : int;
  mutable dropped : int;
  mutable writer : Thread.t option;
}

let writer_loop t oc () =
  let rec loop () =
    let batch, stop =
      Mutex.protect t.m (fun () ->
          while Queue.is_empty t.q && not t.closed do
            Condition.wait t.cv t.m
          done;
          (* drain everything queued in one critical section *)
          let out = ref [] in
          while not (Queue.is_empty t.q) do
            out := Queue.pop t.q :: !out
          done;
          (List.rev !out, t.closed))
    in
    List.iter
      (fun record ->
        output_string oc (Obs.Json.to_string record);
        output_char oc '\n')
      batch;
    if batch <> [] then flush oc;
    if not stop then loop ()
  in
  loop ();
  close_out_noerr oc

let create ?(capacity = 256) ~path () =
  if capacity < 1 then invalid_arg "Slowlog.create: capacity must be >= 1";
  let t =
    {
      capacity;
      q = Queue.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      closed = false;
      written = 0;
      dropped = 0;
      writer = None;
    }
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  t.writer <- Some (Thread.create (writer_loop t oc) ());
  t

let write t record =
  let accepted =
    Mutex.protect t.m (fun () ->
        if t.closed || Queue.length t.q >= t.capacity then begin
          t.dropped <- t.dropped + 1;
          false
        end
        else begin
          Queue.push record t.q;
          t.written <- t.written + 1;
          true
        end)
  in
  if accepted then Condition.signal t.cv;
  accepted

let written t = Mutex.protect t.m (fun () -> t.written)
let dropped t = Mutex.protect t.m (fun () -> t.dropped)

let close t =
  let was_closed =
    Mutex.protect t.m (fun () ->
        let was = t.closed in
        t.closed <- true;
        was)
  in
  if not was_closed then begin
    Condition.broadcast t.cv;
    match t.writer with Some th -> Thread.join th | None -> ()
  end
