(** SplitMix64 deterministic PRNG.

    Everything the TPC-H generator emits derives from one seed, so a
    (seed, scale) configuration reproduces the identical instance. *)

type t

val create : int64 -> t
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises on [bound <= 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
val split : t -> string -> t
(** Derive an independent labelled sub-stream (one per table). *)
