(** Request-scoped sharing of repeated join subtrees.

    The streams of a partitioned plan join their ancestors' tables
    again: each fragment's SQL repeats the joins above it, which the
    paper names as the cost of partitioning ("redundant join
    re-computation").  A store counts, over the physical plans of one
    request, the subtrees rooted at a join, or at a projection over a
    join, that occur at least twice, comparing them by
    {!Physical.keys}.  The executor runs such a subtree once, stores its
    output, and replays it for every later occurrence in the request.

    The store only counts and keeps: what an entry holds, and how a
    replay charges, is the executor's business.  Its contract:
    - an entry is kept from the run that computed it until its last
      counted use, and dropped then; a run that failed part-way stores
      nothing;
    - a stream never waits for an entry another domain is computing: on
      a miss it computes its own copy, so no two streams can deadlock;
    - the store lives as long as the caller holds it, one request
      ([Middleware.execute]); every plan of one store must run against
      one database under one cost profile. *)

type 'a t
(** One request's store of ['a] entries, safe to share across domains
    (one mutex). *)

val create : Physical.plan list -> 'a t
(** Counts the repeated subtrees of the given plans; empty until a run
    stores an entry. *)

val subtrees : 'a t -> int
(** The distinct subtrees counted (occurring at least twice). *)

type 'a scope
(** One plan's view of the store. *)

val scope : 'a t -> int -> 'a scope
(** The view for the plan at that index of {!create}'s list.  Raises
    [Invalid_argument] when the index is out of range. *)

val plan : 'a scope -> Physical.plan
(** The plan the view was counted for; it is the only plan it may be
    used with. *)

val slot : 'a scope -> Physical.node -> int
(** The node's counted subtree, or -1 when it does not repeat (or is no
    lookup point: a join read directly by a projection is priced with
    the projection). *)

val take : 'a scope -> int -> ('a * int) option
(** One use of the slot's subtree: the stored entry and the index of
    the plan that computed it, or [None] when nothing is stored (the
    caller computes it, then may {!put} it).  A hit also uses up the
    counted subtrees nested inside it, which the replay skips. *)

val put : 'a scope -> int -> 'a -> unit
(** Stores a completely computed entry for the slot, unless no counted
    use is left or another run stored one first. *)
