(** Weighted LRU cache — the building block of the server's three cache
    tiers (statement, plan, result).

    Capacity is a total-weight budget: entries carry a weight (1 for
    count-bounded tiers, byte size for the result tier's storage budget)
    and the least-recently-used entries are evicted until the budget
    holds again.  An entry heavier than the whole budget is simply not
    admitted.  All operations are thread-safe (one mutex per cache) and
    O(1) apart from eviction, which is O(evicted).

    Every eviction emits a [server.cache.evict] debug event (when
    tracing is on) naming the tier, the key and the freed weight. *)

type 'a t

val create : name:string -> capacity:int -> unit -> 'a t
(** [capacity <= 0] disables the cache: [find] always misses, [add] is
    a no-op.  [name] labels its eviction events and errors. *)

val find : 'a t -> string -> 'a option
(** Bumps the entry to most-recently-used and counts a hit; [None]
    counts a miss. *)

val peek : 'a t -> string -> 'a option
(** Like {!find} but without touching the hit/miss counters — for
    double-checked lookups that already counted their first probe. *)

val add : ?weight:int -> ?guard:(unit -> bool) -> 'a t -> string -> 'a -> unit
(** Inserts (or replaces) the entry as most-recently-used, then evicts
    LRU entries until the total weight fits the budget.  [weight]
    defaults to 1 and must be positive; an entry with
    [weight > capacity] is dropped without disturbing the cache, and so
    is one whose [guard], called under the cache mutex, is [false]. *)

val clear : 'a t -> unit
(** Drops every entry and counts one flush (cache-tier invalidation). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  flushes : int;
  entries : int;
  weight : int;
}

val stats : 'a t -> stats
(** Every counter in one read under the cache mutex, so a concurrent
    lookup cannot skew a ratio between two of them. *)

val ratio_of : hits:int -> misses:int -> float
(** [hits / (hits + misses)], 0 when both are zero — the one hit-ratio
    formula the exposition, [--server-stats] and the tests share. *)
