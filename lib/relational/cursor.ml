(* Pull-based tuple cursors.

   A cursor is the streaming counterpart of [Relation]: named columns
   plus a pull function producing tuples one at a time.  The executor
   hands back a cursor over a query's sorted output so consumers (the
   merge tagger) can drop each tuple as soon as it has been processed;
   [spool] additionally moves the backing rows out of the OCaml heap
   into a temporary file, modeling a server-side result set read back
   over the wire, so live memory during consumption is bounded by one
   tuple per open cursor rather than by the result cardinality. *)

type t = {
  cols : string array;
  mutable pull : unit -> Tuple.t option;
  mutable cleanup : unit -> unit;
      (* releases off-heap resources (spool file, open channel); must be
         idempotent-safe to drop because [close] runs it at most once *)
}

let no_cleanup () = ()
let create cols pull = { cols; pull; cleanup = no_cleanup }
let arity c = Array.length c.cols
let next c = c.pull ()

(* Releasing an abandoned cursor: stop producing tuples and free any
   backing resource now instead of at process exit.  Exhausting a cursor
   normally releases resources too; [close] is for the error paths —
   timeouts and plan degradation abandon cursors mid-stream, and before
   this hook existed each abandoned spool cursor leaked its temp file. *)
let close c =
  let f = c.cleanup in
  c.cleanup <- no_cleanup;
  c.pull <- (fun () -> None);
  f ()

let empty cols = create cols (fun () -> None)

let of_list cols rows =
  let rest = ref rows in
  create cols (fun () ->
      match !rest with
      | [] -> None
      | t :: tl ->
          rest := tl;
          Some t)

let of_relation r = of_list (Relation.cols r) (Relation.rows r)

(* Draining combinators close the cursor when the consumer raises:
   timeouts and injected faults escape through [iter]/[to_list]/[spool]
   mid-drain, and without this the abandoned source kept its spool file
   and open channel until process exit. *)
let iter f c =
  let rec go () =
    match c.pull () with
    | None -> ()
    | Some t ->
        f t;
        go ()
  in
  try go ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    close c;
    Printexc.raise_with_backtrace e bt

let to_list c =
  let acc = ref [] in
  iter (fun t -> acc := t :: !acc) c;
  List.rev !acc
let to_relation c = Relation.create c.cols (to_list c)

(* Spooling: drain [c] into a temporary file now and return a cursor that deserializes the rows back on demand.  The
   file is removed once the last row has been read, or by [close] on an
   abandoned cursor (timeout/degradation paths). *)

(* [Filename.temp_file] mutates global naming state; worker domains
   spool concurrently, so serialize name generation. *)
let temp_lock = Mutex.create ()

let spool (c : t) : t =
  let path =
    Mutex.protect temp_lock (fun () ->
        Filename.temp_file "silkroute" ".spool")
  in
  let oc = open_out_bin path in
  let count = ref 0 in
  (try
     iter
       (fun t ->
         Marshal.to_channel oc (t : Tuple.t) [];
         incr count)
       c
   with e ->
     close_out_noerr oc;
     (try Sys.remove path with Sys_error _ -> ());
     raise e);
  close_out oc;
  let remaining = ref !count in
  let ic = ref None in
  let removed = ref false in
  let release () =
    (match !ic with
    | Some chan ->
        close_in_noerr chan;
        ic := None
    | None -> ());
    if not !removed then begin
      removed := true;
      try Sys.remove path with Sys_error _ -> ()
    end
  in
  let pull () =
    if !remaining <= 0 then begin
      (* an empty spool has no last row to trigger the removal *)
      release ();
      None
    end
    else begin
      let chan =
        match !ic with
        | Some chan -> chan
        | None ->
            let chan = open_in_bin path in
            ic := Some chan;
            chan
      in
      let (t : Tuple.t) = Marshal.from_channel chan in
      decr remaining;
      if !remaining = 0 then release ();
      Some t
    end
  in
  let spooled = create c.cols pull in
  spooled.cleanup <- release;
  spooled

(* --- Batch protocol ------------------------------------------------- *)

(* Two counters, not a [(batch, index)] pair: a pull allocates nothing
   but the [Some] it returns. *)
let of_batches cols batches =
  let rest = ref batches and i = ref 0 in
  let rec pull () =
    match !rest with
    | [] -> None
    | b :: tl ->
        if !i < Batch.length b then begin
          let row = Batch.get b !i in
          incr i;
          Some row
        end
        else begin
          rest := tl;
          i := 0;
          pull ()
        end
  in
  create cols pull
