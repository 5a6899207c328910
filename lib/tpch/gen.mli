(** TPC-H-style database generator (paper Fig. 1 schema fragment).

    Ratios between tables follow TPC-H's shape; absolute sizes are scaled
    by [scale].  Two properties the paper's experiments depend on are
    guaranteed: some suppliers supply no parts, and some supplied parts
    have no pending orders — the rows that make outer joins matter. *)

type config = {
  scale : float;
  seed : int64;
  supplier_no_part_fraction : float;
  partsupp_no_order_fraction : float;
}

val config :
  ?seed:int64 ->
  ?supplier_no_part_fraction:float ->
  ?partsupp_no_order_fraction:float ->
  float ->
  config
(** [config scale] with defaults seed 42, 10% part-less suppliers, 10%
    order-less supplied parts.  Raises [Invalid_argument] unless [scale]
    is finite and positive. *)

val schema_tables : Relational.Schema.table list
(** The eight tables of the paper's Fig. 1 with keys and foreign keys. *)

val empty_database : unit -> Relational.Database.t
(** The schema with no rows. *)

val generate : config -> Relational.Database.t
(** Deterministic: equal configs produce identical instances, with
    referential integrity (checked by the test suite). *)

val shuffle : int64 -> Relational.Database.t -> unit
(** [shuffle seed db] permutes the rows of every table of [db] in place,
    deterministically for [seed].  The contents stay the same, but no
    key order survives, so the engine's sorts meet out-of-order input
    instead of the generator's key order. *)

val figure8_database : unit -> Relational.Database.t
(** The tiny fixed instance of the paper's Fig. 8, for unit tests and
    documentation examples. *)
