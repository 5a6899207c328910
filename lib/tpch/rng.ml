(* SplitMix64: tiny, fast, high-quality deterministic PRNG.  Every stream
   the generator uses derives from a single seed, so a (seed, scale)
   configuration always produces the identical database instance. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform int in [lo, hi] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

(* Derive an independent sub-stream, e.g. one per table. *)
let split t label =
  let h = Int64.of_int (Hashtbl.hash label) in
  create (Int64.logxor (next_int64 t) (Int64.mul h 0x2545F4914F6CDD1DL))
