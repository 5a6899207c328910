(** View trees — the intermediate representation of RXL views (paper
    Sec. 3.1).

    A view tree merges all XML templates of an RXL view by Skolem
    function into one global template; each node carries a non-recursive
    datalog rule computing all instances of that node, a Skolem-function
    index (S1.4.2 → [\[1;4;2\]]), and its Skolem term's variables.
    Variables are globally consistent: equality join conditions unify
    column variables, giving the shared-variable bodies of the paper's
    Fig. 4. *)

type content = Content_var of string | Content_const of Relational.Value.t

type node = {
  id : int;
  parent : int option;
  tag : string;
  explicit_skolem : string option;
  sfi : int list;  (** Skolem-function index *)
  sibling_index : int;  (** position among the parent's content items *)
  scope : (string * string) list;  (** (alias, table) per atom, in order *)
  rule : Datalog.Rule.t;  (** head = Skolem term, body = scope's from/where *)
  key_vars : string list;  (** instance identity: keys of in-scope tuple vars *)
  contents : (int * content) list;  (** item index → text payload *)
  delta_atoms : Datalog.Rule.atom list;  (** atoms absent from the parent *)
  delta_scope : (string * string) list;
  delta_filters : Datalog.Rule.filter list;
}

type t = {
  root_tag : string;
  nodes : node array;  (** id = index, parents before children *)
  edges : (int * int) array;  (** (parent, child), BFS order *)
  svi : (string * (int * int)) list;  (** variable → (level p, counter q) *)
}

exception Unsupported of string

val of_view : Relational.Database.t -> Rxl.view -> t
(** Builds the view tree; runs {!Rxl.check} first. *)

val level : node -> int
(** Depth of the node, root = 1 (length of its SFI). *)

val skolem_name : int list -> string
(** [\[1;4;2\]] → ["S1.4.2"]. *)

val node : t -> int -> node
val node_count : t -> int
val edge_count : t -> int

(** The global sort-attribute sequence [L1, key vars(level 1), L2, key
    vars(level 2), …, content vars]: each partitioned relation is sorted
    by its restriction of this sequence.  Content-only variables come
    after every level attribute — a deliberate deviation from the paper's
    interleaved order; see DESIGN.md §6 ("Global sort order"). *)
type sort_attr = Level of int | Variable of string

val sort_attrs : t -> sort_attr list

val instances : Relational.Database.t -> t -> int -> Relational.Relation.t
(** Ground-truth instance set of a node via naive datalog evaluation
    (test oracle). *)

val to_string : t -> string
