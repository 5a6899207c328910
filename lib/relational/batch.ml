(* Fixed-size row chunks with selection vectors.  See batch.mli. *)

type t = {
  rows : Tuple.t array;
  bytes : int array; (* each row's wire size *)
  uncharged : int; (* the part of each row's [bytes] no sort charges *)
  mutable len : int;
  mutable sel : int array;
      (* indexes of live rows, in ascending order; [||] means "no
         selection vector yet", i.e. all [len] rows are live. *)
  mutable sel_len : int;
  mutable filtered : bool;
}

(* 256 elements is the largest array the OCaml runtime still allocates
   on the minor heap (Max_young_wosize).  Larger chunks land on the
   major heap, and then every [push] of a young tuple pays the full
   write-barrier cost — measured slower than a tuple-at-a-time
   interpreter. *)
let default_size = 256

let create ?(size = default_size) ?(uncharged = 0) () =
  if size < 1 then invalid_arg "Batch.create: size < 1";
  {
    rows = Array.make size [||];
    bytes = Array.make size 0;
    uncharged;
    len = 0;
    sel = [||];
    sel_len = 0;
    filtered = false;
  }

let of_rows ?bytes rows =
  let bytes =
    match bytes with
    | None -> Array.make (max 1 (Array.length rows)) 0
    | Some b ->
        if Array.length b <> Array.length rows then
          invalid_arg "Batch.of_rows: bytes and rows differ in length";
        b
  in
  {
    rows;
    bytes;
    uncharged = 0;
    len = Array.length rows;
    sel = [||];
    sel_len = 0;
    filtered = false;
  }

let uncharged b = b.uncharged
let length b = if b.filtered then b.sel_len else b.len
let is_full b = (not b.filtered) && b.len = Array.length b.rows

let push b ~bytes row =
  if b.filtered then invalid_arg "Batch.push: batch has a selection vector";
  if b.len = Array.length b.rows then invalid_arg "Batch.push: batch is full";
  b.rows.(b.len) <- row;
  b.bytes.(b.len) <- bytes;
  b.len <- b.len + 1

let live_index b i =
  if i < 0 || i >= length b then invalid_arg "Batch: index out of bounds";
  if b.filtered then b.sel.(i) else i

let get b i = b.rows.(live_index b i)
let bytes_at b i = b.bytes.(live_index b i)

let total_bytes b =
  let sum = ref 0 in
  if b.filtered then
    for i = 0 to b.sel_len - 1 do
      sum := !sum + b.bytes.(b.sel.(i))
    done
  else
    for i = 0 to b.len - 1 do
      sum := !sum + b.bytes.(i)
    done;
  !sum

let iter f b =
  if b.filtered then
    for i = 0 to b.sel_len - 1 do
      let j = b.sel.(i) in
      f b.rows.(j) b.bytes.(j)
    done
  else
    for i = 0 to b.len - 1 do
      f b.rows.(i) b.bytes.(i)
    done

let filter p b =
  let n = length b in
  let sel = Array.make n 0 and kept = ref 0 in
  for i = 0 to n - 1 do
    let j = if b.filtered then b.sel.(i) else i in
    if p b.rows.(j) then begin
      sel.(!kept) <- j;
      incr kept
    end
  done;
  { b with sel; sel_len = !kept; filtered = true }

let to_list b =
  let acc = ref [] in
  iter (fun row _ -> acc := row :: !acc) b;
  List.rev !acc
