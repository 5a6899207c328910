(** View-tree partitioning (paper Sec. 3.2).

    A plan is a subset of view-tree edges: kept edges merge their
    endpoints into one SQL query, cut edges separate tuple streams.
    Every subset is a plan (a spanning forest), so a 9-edge view tree
    has 2^9 = 512 plans. *)

type t

(** One tree of the spanning forest = one SQL query = one tuple stream. *)
type fragment = {
  root : int;  (** node id of the fragment's root *)
  members : int list;  (** node ids, document order, root first *)
  internal_edges : (int * int) list;
}

val of_keep : View_tree.t -> bool array -> t
(** [keep] is parallel to the tree's edge array. *)

val of_mask : View_tree.t -> int -> t
(** Bit [i] of [mask] keeps edge [i]. *)

val to_mask : t -> int

val unified : View_tree.t -> t
(** All edges kept: one SQL query (the paper's unified plan). *)

val fully_partitioned : View_tree.t -> t
(** No edges kept: one SQL query per view-tree node. *)

val all_masks : View_tree.t -> int list
(** [0 .. 2^|E|-1]; raises for trees with ≥ 20 edges. *)

val kept_edges : t -> (int * int) list

val fragments : t -> fragment list
(** Connected components under kept edges, ordered by root id (document
    order). *)

val stream_count : t -> int

val split : fragment -> fragment list option
(** One degradation step down the 2^|E| plan lattice: cut the fragment's
    first internal edge, yielding two finer fragments (ordered by root
    id) whose streams jointly cover the same view-tree nodes.  [None]
    for single-node fragments — there is nothing finer to fall back
    to. *)

val to_string : t -> string
