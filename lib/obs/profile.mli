(** Profile trees: the span log aggregated by name-path.

    Every dynamic span instance with the same ancestry of names folds
    into one node with call counts, total and self milliseconds, and
    sums of the pipeline's accounting attributes ([rows]/[work]/[bytes]
    integer attrs).  Invariants (pinned by [test_profile.ml]):
    [self_ms >= 0] on every node, and the self times of a tree sum back
    to its root's total. *)

type node = {
  name : string;
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;  (** total minus time attributed to children *)
  mutable rows : int;
  mutable work : int;
  mutable bytes : int;
  mutable minor_words : float;
      (** minor-heap words allocated during spans folded into this node
          (descendants included, like [total_ms]); only finished spans
          contribute *)
  mutable major_words : float;  (** major-heap words, likewise *)
  mutable durations : float list;
      (** each folded finished span's duration in ms, newest first *)
  mutable children_rev : node list;  (** reverse first-seen order *)
}

type t = { roots : node list; total_ms : float }

val of_spans : Span.t list -> t
(** Aggregates a span log (pre-order, as {!Span.spans} returns it).
    Unfinished spans are charged zero duration; orphans become roots. *)

val capture : unit -> t
(** [of_spans (Span.spans ())]. *)

val children : node -> node list
(** Children in first-seen order. *)

val fold : ('a -> string list -> node -> 'a) -> 'a -> t -> 'a

val hot : ?top:int -> t -> node list
(** Nodes merged by bare name across all paths, sorted by self time
    descending, truncated to [top] (default 10).  Returned nodes are
    fresh aggregates with no children. *)

val render_hot : ?top:int -> t -> string
(** Top-k table with exact p50/p90/p99 columns over each row's span
    durations. *)

val percentile_of_sorted : float array -> float -> float
(** Exact nearest-rank [q]-quantile of ascending samples (index
    [round (q * (n - 1))]); 0 when there are none. *)

(** The one whole-run GC record ([run --profile]'s header and a server's
    slow-query record print it): words promoted from the minor heap and
    major-heap words (promotions included), both exact, the calling
    domain's and those of the pool tasks it awaited (see {!words}), and
    collections of each heap, across every domain. *)
type gc = {
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val words : unit -> float * float
(** Promoted and major words so far: the calling domain's, from
    {!Gc.counters} as {!Span} reads them, plus every {!add_awaited}
    made on it. *)

val add_awaited : float * float -> unit
(** Adds the {!words} a pool task took on the domain that ran it to the
    calling domain, the one that awaited the task. *)

val gc_now : unit -> gc
(** The counts so far: words from {!words}, and collections from
    {!Gc.quick_stat}. *)

val gc_since : gc -> gc
(** The deltas from a {!gc_now} taken before the run to now. *)

val render : ?top:int -> ?gc:gc -> t -> string
(** Flame-style table — one row per name-path with calls, total/self
    ms, attribute sums and a share bar — followed by {!render_hot}.
    With [gc], the header line also reports its promoted and major
    kilowords and its minor and major collections. *)
