(** The greedy plan-generation algorithm (paper Sec. 5, Fig. 17).

    [gen_plan] greedily collapses the view-tree edge with the lowest
    relative cost [cost(q_c) − (cost(q_1) + cost(q_2))], where
    [cost(q) = a·evaluation_cost(q) + b·data_size(q)] is answered by the
    RDBMS cost oracle in predicted milliseconds
    ({!Relational.Cost.time_cost}).  Edges below [t1] are mandatory, below [t2]
    optional; the algorithm stops when no remaining edge qualifies. *)

type params = { a : float; b : float; t1 : float; t2 : float }

val default_params : params
(** Thresholds in predicted milliseconds: t2 = 0 merges only when the
    predicted time falls (the paper used a=100, b=1, t1=-60000, t2=6000
    against its commercial RDBMS). *)

type result = {
  mandatory : (int * int) list;
  optional : (int * int) list;
  requests : int;
      (** cost-estimate requests issued by this run (paper Sec. 5.1) —
          the per-run delta, even when the oracle is reused *)
  cache_hits : int;
      (** fragment-cost lookups served by the member-set cache — the
          requests the paper's Sec. 5.1 experiment would have counted
          without caching *)
}

type costs
(** Fragment estimates kept across genPlan runs and partitions of one
    view: the oracle's {!Relational.Cost.estimate} of a fragment's
    query, keyed by whether it is reduced and by its member set
    (ascending node ids, as {!Partition.fragments} lists them).  Valid
    for the one catalog it is filled under. *)

val costs : limit:int -> costs
(** An empty table, of no catalog yet, that holds at most [limit]
    entries and empties itself when an insertion finds it full;
    [limit = 0] keeps nothing. *)

val for_catalog : costs -> Relational.Stats.t -> unit
(** [for_catalog c stats] empties [c] if it was filled under another
    catalog than [stats] ([!=]: catalogs are immutable), and records
    [stats]; a table of no catalog yet adopts [stats] as it is. *)

val find_cost : costs -> reduce:bool -> int list -> Relational.Cost.estimate option
val add_cost : costs -> reduce:bool -> int list -> Relational.Cost.estimate -> unit

val cost_entries : costs -> int
(** The number of estimates held. *)

val gen_plan :
  ?reduce:bool ->
  ?costs:costs ->
  Relational.Database.t ->
  Relational.Cost.oracle ->
  View_tree.t ->
  Xmlkit.Dtd.multiplicity array ->
  params ->
  result
(** [reduce] makes combineQueries apply view-tree reduction, as in the
    paper's second experiment.  Fragment costs are cached by member set
    for the run, keeping oracle requests far below the quadratic worst
    case.  Below that cache, a request for a fragment [costs] holds is
    answered from it, without generating the fragment's SQL; every
    other request is asked of the oracle and its estimate added to
    [costs].  [requests] and [cache_hits] count the same either way. *)

val plans_of : View_tree.t -> result -> Partition.t list
(** The plan family: mandatory edges plus each subset of the optional
    edges (2^|optional| plans). *)

val best_plan : View_tree.t -> result -> Partition.t
(** Mandatory plus all optional edges. *)

val to_string : View_tree.t -> result -> string
