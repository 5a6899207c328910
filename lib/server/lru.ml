(* Weighted LRU over a hash table and an intrusive doubly-linked list.

   The list holds key-carrying nodes in recency order behind a circular
   sentinel: sentinel.next is the most-recently-used node, sentinel.prev
   the eviction candidate.  Values live only in the hash table (the
   sentinel would otherwise pin an arbitrary cached value alive for the
   cache's lifetime).  [find] splices the hit node back to the front;
   [add] evicts from the back until the weight budget holds.  A single
   mutex per cache makes every operation atomic with respect to the
   server's session threads and pool domains. *)

type node = {
  key : string;
  weight : int;
  mutable prev : node;
  mutable next : node;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  flushes : int;
  entries : int;
  weight : int;
}

type 'a t = {
  cname : string;
  cap : int;
  tbl : (string, 'a * node) Hashtbl.t;
  sentinel : node;
  mutable total : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable flushes : int;
  m : Mutex.t;
}

let create ~name ~capacity () =
  let rec s = { key = ""; weight = 0; prev = s; next = s } in
  {
    cname = name;
    cap = capacity;
    tbl = Hashtbl.create 64;
    sentinel = s;
    total = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    flushes = 0;
    m = Mutex.create ();
  }

let unlink (n : node) =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front (s : node) (n : node) =
  n.next <- s.next;
  n.prev <- s;
  s.next.prev <- n;
  s.next <- n

let find t key =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (v, n) ->
          t.hits <- t.hits + 1;
          unlink n;
          push_front t.sentinel n;
          Some v
      | None ->
          t.misses <- t.misses + 1;
          None)

let peek t key =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (v, n) ->
          unlink n;
          push_front t.sentinel n;
          Some v
      | None -> None)

let remove_node t (n : node) =
  unlink n;
  Hashtbl.remove t.tbl n.key;
  t.total <- t.total - n.weight

let evict_until_fits t =
  let s = t.sentinel in
  while t.total > t.cap && s.prev != s do
    let victim = s.prev in
    remove_node t victim;
    t.evictions <- t.evictions + 1;
    if Obs.Span.tracing () then
      Obs.Event.debug "server.cache.evict"
        ~attrs:
          [
            Obs.Attr.string "tier" t.cname;
            Obs.Attr.string "key" victim.key;
            Obs.Attr.int "weight" victim.weight;
          ]
  done

let add ?(weight = 1) ?(guard = Fun.const true) t key value =
  if weight <= 0 then
    invalid_arg
      (Printf.sprintf "Lru.add (%s): weight must be positive, got %d" t.cname
         weight);
  Mutex.protect t.m (fun () ->
      if weight <= t.cap && guard () then begin
        (match Hashtbl.find_opt t.tbl key with
        | Some (_, old) -> remove_node t old
        | None -> ());
        let rec n = { key; weight; prev = n; next = n } in
        push_front t.sentinel n;
        Hashtbl.replace t.tbl key (value, n);
        t.total <- t.total + weight;
        t.insertions <- t.insertions + 1;
        evict_until_fits t
      end)

let clear t =
  Mutex.protect t.m (fun () ->
      Hashtbl.reset t.tbl;
      let s = t.sentinel in
      s.prev <- s;
      s.next <- s;
      t.total <- 0;
      t.flushes <- t.flushes + 1)

let ratio_of ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let stats t =
  Mutex.protect t.m (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        insertions = t.insertions;
        evictions = t.evictions;
        flushes = t.flushes;
        entries = Hashtbl.length t.tbl;
        weight = t.total;
      })
