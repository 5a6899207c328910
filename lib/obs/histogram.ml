(* A fixed-bucket histogram: [bounds] are inclusive upper edges and the
   last bucket is the overflow bucket, so [counts] has
   [Array.length bounds + 1] cells.  A plain value: whoever owns one
   (an SLO window, the server's latency account) guards it. *)

type t = {
  bounds : float array;
  counts : int array;
  mutable sum : float;
  mutable n : int;
}

(* Millisecond durations: 1µs to ~1min in powers of four. *)
let duration_bounds = Array.init 13 (fun i -> 0.001 *. (4.0 ** float_of_int i))

let create bounds =
  { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; n = 0 }

(* Index of the bucket [x] falls into: the smallest [i] with
   [x <= bounds.(i)], or [Array.length bounds] for the overflow bucket. *)
let bucket_index bounds x =
  let nb = Array.length bounds in
  if nb = 0 || x > bounds.(nb - 1) then nb
  else begin
    let lo = ref 0 and hi = ref (nb - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h x =
  let i = bucket_index h.bounds x in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. x;
  h.n <- h.n + 1

let clear h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.sum <- 0.0;
  h.n <- 0

let add ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.sum <- into.sum +. h.sum;
  into.n <- into.n + h.n

(* Percentile estimation from bucket counts.  The true values are gone;
   what remains is "k observations landed in (lo, hi]".  We find the
   bucket holding the q*n-th observation and interpolate inside it —
   log-linearly when the edges are positive (our buckets are
   exponential, so equal fractions should cover equal ratios), linearly
   from zero in the first bucket.  The overflow bucket has no upper
   edge, so a percentile landing there reports the last bound: a lower
   bound on the truth, clearly conservative. *)
let percentile h q =
  let nb = Array.length h.bounds in
  if h.n = 0 || nb = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.n in
    let rec go i cum =
      if i > nb then Some h.bounds.(nb - 1)
      else
        let c = h.counts.(i) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= rank then
          if i >= nb then Some h.bounds.(nb - 1)
          else begin
            let hi = h.bounds.(i) in
            let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
            let frac = Float.max 0.0 ((rank -. cum) /. float_of_int c) in
            if lo > 0.0 && hi > 0.0 then Some (lo *. ((hi /. lo) ** frac))
            else Some (lo +. ((hi -. lo) *. frac))
          end
        else go (i + 1) cum'
    in
    go 0 0.0
  end

let p50_90_99 h =
  match (percentile h 0.50, percentile h 0.90, percentile h 0.99) with
  | Some a, Some b, Some c -> Some (a, b, c)
  | _ -> None
