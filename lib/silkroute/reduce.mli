(** View-tree reduction (paper Sec. 3.5).

    Collapses nodes connected by '1'-labeled edges into groups whose
    rules are combined into one query.  Applied within each partition
    fragment: internal 1-edges collapse, cut edges are untouched, so a
    plan's stream count is preserved. *)

type group = {
  g_root : int;  (** member closest to the view-tree root *)
  g_members : int list;  (** node ids, document order, root first *)
}

val groups_of_fragment :
  View_tree.t ->
  labels:Xmlkit.Dtd.multiplicity array option ->
  Partition.fragment ->
  group list
(** [labels] parallel to the tree's edges; [None] disables reduction. *)

val fused_children : View_tree.t -> group -> int -> int list
(** Group members whose view-tree parent is the given member. *)

val group_of : group list -> int -> group
(** The group containing a node.  Raises [Not_found]. *)

val child_groups : View_tree.t -> group list -> group -> group list
(** Groups whose root's parent node is a member of [g]. *)

val to_string : View_tree.t -> group list -> string
