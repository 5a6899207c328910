(** Edge multiplicity labeling (paper Sec. 3.5).

    Labels each view-tree edge [1 ? + *] from the C1 (functional
    dependency) and C2 (inclusion dependency) tests against the source
    description: keys, NOT NULL foreign keys, and declared inclusion
    dependencies.  [1]-labeled edges are the reducible ones. *)

val label_edges :
  Relational.Database.t -> View_tree.t -> Xmlkit.Dtd.multiplicity array
(** Parallel to [t.edges]. *)

val to_string : View_tree.t -> Xmlkit.Dtd.multiplicity array -> string
