(** Deterministic multi-client workload driver.

    Builds a seeded pseudo-random request script per client — a mix of
    views, partition strategies, reduce flags and periodic invalidations
    — and replays it against a server, either in-process (direct
    {!Service.handle} calls) or over the wire protocol on a Unix-domain
    socket.  The script depends only on [(seed, clients,
    requests_per_client, strategies, invalidate_every)], so tests and
    the smoke gate can assert exact tallies.

    With verification on, every [Result] reply is compared byte-for-byte
    against a reference materialization produced by the plain middleware
    path ({!Server} never sees it) — this is the end-to-end check that
    cached and uncached responses are identical, since a replay hits
    every tier state (cold, warm, post-invalidation). *)

(** One benchmark view plus its reference output. *)
type view = {
  wv_name : string;
  wv_text : string;  (** RXL source sent in [Query] requests *)
  wv_expected : string option;
      (** reference XML from the direct middleware path *)
}

val standard_views : ?verify:bool -> Relational.Database.t -> view list
(** The paper's Query 1 / Query 2 / boxed-fragment views.  [verify]
    (default true) executes each once through the plain middleware
    pipeline to fill [wv_expected]. *)

type config = {
  clients : int;
  requests_per_client : int;
  seed : int;
  strategies : string list;
      (** drawn uniformly per request; must be valid for every view *)
  invalidate_every : int;
      (** client 0 replaces every Nth query with a skew-less
          [Invalidate], which flushes the result tier and keeps the
          plans; 0 disables *)
}

val default_config : config
(** 4 clients × 24 requests, seed 42, strategies
    [greedy|unified|partitioned|edges:1|edges:3], invalidate every 10. *)

val script : views:view list -> config -> Protocol.request array array
(** The replayed requests, one array per client — exposed so tests can
    assert determinism.  Raises [Invalid_argument] on no views, no
    strategies, fewer than one client or fewer than one request per
    client; the replays below check their config through it. *)

(** Merged outcome of one replay. *)
type tally = {
  queries : int;  (** [Query] requests sent *)
  results : int;  (** [Result] replies *)
  statement_hits : int;
  plan_hits : int;
  result_hits : int;
  rejected : int;
  failed : int;
  infos : int;  (** invalidation acknowledgements *)
  work : int;  (** summed engine work of uncached executions *)
  bytes : int;  (** summed result bytes, cached hits included *)
  mismatches : string list;
      (** byte-identity violations — must be [[]]; each entry names
          client, request index, view and strategy *)
  errors : string list;  (** [Failed] reply messages, deduplicated *)
  lat_samples : int;
      (** measured per-request wall-clock samples — one per [Query]
          round trip, whatever the reply *)
  lat_p50_ms : float;  (** exact nearest-rank percentiles, 0 when empty *)
  lat_p90_ms : float;
  lat_p99_ms : float;
}

val run_direct :
  ?threads:bool -> ?verify:bool -> Service.t -> views:view list -> config -> tally
(** Replays in-process.  [threads] (default false) gives each client its
    own thread — real concurrency through admission and the pool;
    sequential replay interleaves clients round-robin and keeps every
    counter exactly reproducible.  [verify] (default true) checks each
    result against [wv_expected]. *)

val run_socket :
  ?verify:bool -> socket:string -> views:view list -> config -> tally
(** Replays over the wire protocol: one connection + thread per client
    against a server listening on [socket].  Every client is joined;
    then the first client's failure, if any, is raised — a failure to
    connect as [Unix.Unix_error (_, "connect", socket)]. *)

val request : socket:string -> Protocol.request -> Protocol.reply option
(** One request over a fresh connection — how the CLI asks a running
    server for its stats report or tells it to shut down.  [None] if the
    server closed the connection without replying; raises
    [Unix.Unix_error (_, "connect", socket)] if it cannot connect. *)

val render : tally -> string
(** Human-readable summary, one [key=value] line group per concern. *)
