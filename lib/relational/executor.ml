(* Query execution: the interpreter of {!Physical.plan}s.  A run writes
   nothing into its plan: its per-node figures go to [stats.actuals].

   Execution is metered: every row scanned, probed, emitted or sorted
   charges a work counter.  The counter serves two purposes: it
   implements the experiment timeout (the paper killed sub-queries after
   five minutes), and it provides a deterministic "simulated time" that
   makes the experiment output reproducible across machines.  The
   physical path charges exactly like the seed AST interpreter at every
   operator, except that rewrites may only lower the bill: statically
   literal output columns (NULL padding, level constants) skip the
   per-byte emission charge, and pruned projections shrink intermediate
   widths.

   The seed interpreter lives outside the engine, in the tests' oracle
   library; it charges through the meter exported here ([ctx] and the
   [charge] functions), so its work figures compare unit for unit. *)

exception Timeout
exception Ambiguous_column = Algebra.Ambiguous_column

type replay = { r_node : int; r_owner : int; r_work : int }

type stats = {
  mutable scanned : int;       (* rows read from stored tables *)
  mutable probed : int;        (* join candidate pairs examined *)
  mutable emitted : int;       (* rows produced by operators *)
  mutable sorted : int;        (* rows passed through sort *)
  mutable spill_passes : int;  (* external-sort merge passes *)
  mutable work : int;          (* total work units, drives the budget *)
  actuals : Physical.actuals;  (* per plan node, written by this run only *)
  mutable replayed : replay list; (* subtrees served from a Share store *)
}

let new_stats () =
  { scanned = 0; probed = 0; emitted = 0; sorted = 0; spill_passes = 0; work = 0;
    actuals = { rows = [||]; cost = [||]; spills = [||]; ns = [||] };
    replayed = [] }

(* Cost profile of the simulated server.  The engine runs in memory, but
   the work meter models a disk-based RDBMS: rows are charged by width
   (NULL padding is cheap but not free), and sorting a result larger
   than [sort_buffer] bytes pays external merge passes.  These two
   effects are what the paper blames for the unified plans' slowness:
   "they sort smaller result relations and therefore are less likely to
   spill tuples to disk; and they typically have many fewer null values
   than a unified query" (Sec. 7). *)
type profile = {
  sort_buffer : int;   (* bytes of sort memory before spilling *)
  byte_div : int;      (* bytes per extra work unit on emit/sort/spill *)
}

let default_profile = { sort_buffer = 64 * 1024; byte_div = 16 }

(* Work-unit weights; stable, not physically meaningful. *)
let weight = function `Scan | `Probe -> 1 | `Emit -> 2 | `Sort -> 4

type ctx = { db : Database.t; st : stats; budget : int; profile : profile }

let charge ctx field n =
  (match field with
  | `Scan -> ctx.st.scanned <- ctx.st.scanned + n
  | `Probe -> ctx.st.probed <- ctx.st.probed + n
  | `Emit -> ctx.st.emitted <- ctx.st.emitted + n
  | `Sort -> ctx.st.sorted <- ctx.st.sorted + n);
  ctx.st.work <- ctx.st.work + (n * weight field);
  if ctx.budget > 0 && ctx.st.work > ctx.budget then raise Timeout

(* Width-sensitive emission: a produced row also pays for its bytes. *)
let charge_emit_bytes ctx bytes =
  charge ctx `Emit 1;
  ctx.st.work <- ctx.st.work + (bytes / ctx.profile.byte_div);
  if ctx.budget > 0 && ctx.st.work > ctx.budget then raise Timeout

let charge_emit_row ctx (t : Tuple.t) =
  charge_emit_bytes ctx (Tuple.wire_size t)

(* Sorting [rows] totalling [bytes]: n log n comparisons charged per row,
   plus external merge passes once the sort buffer is exceeded — each
   pass rereads and rewrites the whole run. *)
let charge_sort ctx rows bytes =
  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
    go 0 n
  in
  charge ctx `Sort (rows * max 1 (log2 rows));
  if bytes > ctx.profile.sort_buffer then begin
    let ratio = bytes / ctx.profile.sort_buffer in
    let passes = max 1 (log2 ratio) in
    ctx.st.spill_passes <- ctx.st.spill_passes + passes;
    ctx.st.work <- ctx.st.work + (passes * (bytes / ctx.profile.byte_div));
    if ctx.budget > 0 && ctx.st.work > ctx.budget then raise Timeout
  end

(* ===================================================================== *)
(* Physical-plan execution over {!Batch.t} chunks of                     *)
(* {!Batch.default_size} rows, with expressions compiled once per        *)
(* operator; filters give each chunk a new selection vector instead of   *)
(* copying rows.  Charges mirror the seed interpreter operator for       *)
(* operator; only the rewriter-granted discounts differ (narrow emission *)
(* masks, pruned widths, uncharged relocated ON predicates).  Every row  *)
(* carries its full wire size, summed once by the operator that built it *)
(* (a projection, or a join's concatenation) and read by the sort and    *)
(* the drain without touching a value.  Emission charges that size less  *)
(* the output projection's uncharged literal columns, one constant per   *)
(* projection recorded as its batches' [Batch.uncharged]; a sort takes   *)
(* it off each row again, so it charges what emission charged.           *)
(* ===================================================================== *)

module P = Physical

(* --- the join probe ---------------------------------------------------- *)

(* A physical join's right side, indexed once per execution.  Each
   {!Physical.index} is a flat counting-sort layout: [order] holds the
   right-row ids grouped by key, ascending within a group, group g at
   [order.(starts.(g))] to [order.(starts.(g + 1) - 1)]; an
   open-addressing table maps a key's hash to its group, whose first row
   the key is compared with in place.  Beside it sits the probe slice
   ([porder], [pstarts], the same arrays when every row qualifies): only
   the rows that pass the index's guard and have no NULL key.

   A left row's candidates — charged as probed — are the union of its
   groups, counted over the id arrays without reading a row, or every
   right row when some disjunct has no equality (the nested loop).  ON
   is tested only on the ascending union of its probe slices: a pair ON
   accepts satisfies some disjunct, whose equalities put the right row
   in that disjunct's group with non-NULL keys and whose right-only
   conjuncts pass the guard.  Rows, their order and every charge are
   those of testing ON on every candidate.  When ON is one disjunct of
   key equalities only and its index is unguarded, the key match decides
   it: a slice candidate is accepted without calling ON, since the slice
   holds no NULL key and ON's [=] on non-NULL values is {!Value.equal},
   an equivalence, which put the candidate in the left row's group.

   The probe builds no joined row: it charges each accepted pair, or an
   unmatched outer row's NULL pad, as the joined row it stands for and
   hands (left row, right row, its wire size) to its consumer, which
   builds what it keeps — the concatenation, or the row of the
   projection above the join.  That size is the sum of its halves' —
   each input row's carried figure, or its {!Tuple.wire_size} where the
   figure is 0 (a scan's rows).  Nothing per left row allocates or
   writes a pointer except what the consumer builds. *)
type index = {
  lk : int array; (* left key positions *)
  rk : int array; (* right key positions *)
  mask : int; (* slot count - 1; the slot count is a power of two *)
  slots : int array; (* group + 1 by hash slot, 0 when free *)
  starts : int array;
  order : int array;
  pstarts : int array;
  porder : int array;
}

type probe = {
  right : Tuple.t array;
  right_bytes : int array; (* wire size of each right row *)
  full : bool; (* some disjunct has no equality: every row is a candidate *)
  indexes : index array;
  on : Tuple.t -> Tuple.t -> bool; (* ON over (left row, right row) *)
  keys_decide : bool; (* a probe-slice candidate satisfies ON *)
  outer : bool;
  null_pad : Tuple.t;
  pad_bytes : int;
  groups : int array; (* the current left row's group per index, or -1 *)
  (* the union walk: per index, its groups' and its probe slices' id
     arrays, and a cursor range in one of them *)
  order : int array array;
  porder : int array array;
  cur : int array;
  stop : int array;
  mutable matched : bool; (* the current left row has an accepted pair *)
  mutable lbytes : int; (* its wire size; 0 until known *)
  mutable tested : int; (* pairs ON was evaluated on *)
}

(* The group of the left row's key, from hash slot [s] on; -1 when no
   right row has that key. *)
let rec find_group right ix lrow s =
  let e = ix.slots.(s) in
  if e = 0 then -1
  else if Tuple.equal_at ix.lk lrow ix.rk right.(ix.order.(ix.starts.(e - 1))) then
    e - 1
  else find_group right ix lrow ((s + 1) land ix.mask)

(* Some field of [row] at [pos], from the [i]th on, is NULL. *)
let rec has_null pos (row : Tuple.t) i =
  i < Array.length pos && (Value.is_null row.(pos.(i)) || has_null pos row (i + 1))

(* Index [right] for [ix]; [group] is a scratch array of one slot per
   right row, shared by a join's indexes. *)
let index_create right ~group (ix : P.index) =
  let n = Array.length right and rk = ix.P.right_keys in
  (* load at most 2/3 *)
  let cap = ref 16 in
  while !cap < n + (n / 2) do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap 0 in
  (* first pass: each row's group; [order] holds each group's first row
     until the counting sort fills it *)
  let order = Array.make n 0 in
  let ngroups = ref 0 in
  for idx = 0 to n - 1 do
    let row = right.(idx) in
    let s = ref (Tuple.hash_at rk row land mask) and g = ref (-1) in
    while !g < 0 do
      let e = slots.(!s) in
      if e = 0 then begin
        g := !ngroups;
        slots.(!s) <- !g + 1;
        order.(!g) <- idx;
        incr ngroups
      end
      else if Tuple.equal_at rk row rk right.(order.(e - 1)) then g := e - 1
      else s := (!s + 1) land mask
    done;
    group.(idx) <- !g
  done;
  (* counting sort: [starts.(g)] counts up to group g's end, then the
     ids are placed from the back, so each group ends ascending and
     [starts.(g)] at its start *)
  let ng = !ngroups in
  let starts = Array.make (ng + 1) 0 in
  for idx = 0 to n - 1 do
    starts.(group.(idx)) <- starts.(group.(idx)) + 1
  done;
  for g = 1 to ng - 1 do
    starts.(g) <- starts.(g) + starts.(g - 1)
  done;
  for idx = n - 1 downto 0 do
    let g = group.(idx) in
    starts.(g) <- starts.(g) - 1;
    order.(starts.(g)) <- idx
  done;
  starts.(ng) <- n;
  (* the probe slice, marked in [group] by position in [order]: a group
     keyed by NULL holds NULL in every row *)
  let pass = match ix.P.guard with None -> fun _ -> true | Some g -> Expr.compile_pred g in
  let nkept = ref 0 in
  for g = 0 to ng - 1 do
    let null_key = has_null rk right.(order.(starts.(g))) 0 in
    for k = starts.(g) to starts.(g + 1) - 1 do
      let keep = (not null_key) && pass right.(order.(k)) in
      group.(k) <- Bool.to_int keep;
      nkept := !nkept + group.(k)
    done
  done;
  let pstarts, porder =
    if !nkept = n then (starts, order)
    else begin
      let pstarts = Array.make (ng + 1) 0 and porder = Array.make !nkept 0 in
      let j = ref 0 in
      for g = 0 to ng - 1 do
        for k = starts.(g) to starts.(g + 1) - 1 do
          if group.(k) = 1 then begin
            porder.(!j) <- order.(k);
            incr j
          end
        done;
        pstarts.(g + 1) <- !j
      done;
      (pstarts, porder)
    end
  in
  { lk = ix.P.left_keys; rk; mask; slots; starts; order; pstarts; porder }

(* [right_bytes] holds each right row's wire size. *)
let probe_create (info : P.join_info) (right : Tuple.t array) right_bytes =
  let full = info.P.algo = P.Nested_loop in
  let indexes =
    match info.P.indexes with
    | [] -> [||]
    | ixs ->
        let group = Array.make (Array.length right) 0 in
        Array.of_list (List.map (index_create right ~group) ixs)
  in
  let ni = Array.length indexes in
  let null_pad = Tuple.all_null info.P.right_width in
  let keys_decide =
    match (info.P.disjuncts, info.P.indexes) with
    | [ { P.d_rest = []; _ } ], [ { P.guard = None; _ } ] -> true
    | _ -> false
  in
  {
    right;
    right_bytes;
    full;
    indexes;
    on = Expr.compile_join_pred ~split:info.P.split info.P.on;
    keys_decide;
    outer = info.P.kind = Sql.Left_outer;
    null_pad;
    pad_bytes = Tuple.wire_size null_pad;
    groups = Array.make ni (-1);
    order = Array.map (fun (ix : index) -> ix.order) indexes;
    porder = Array.map (fun (ix : index) -> ix.porder) indexes;
    cur = Array.make ni 0;
    stop = Array.make ni 0;
    matched = false;
    lbytes = 0;
    tested = 0;
  }

(* The least id under the cursors of the union walk over the id arrays
   [src] ([p.order] or [p.porder]), advancing every cursor at it; -1
   once all ranges are consumed. *)
let next_union p src =
  let m = ref max_int in
  for t = 0 to Array.length p.cur - 1 do
    if p.cur.(t) < p.stop.(t) then begin
      let v = src.(t).(p.cur.(t)) in
      if v < !m then m := v
    end
  done;
  if !m = max_int then -1
  else begin
    for t = 0 to Array.length p.cur - 1 do
      if p.cur.(t) < p.stop.(t) && src.(t).(p.cur.(t)) = !m then
        p.cur.(t) <- p.cur.(t) + 1
    done;
    !m
  end

(* Point the union walk at the current left row's groups ([slice]
   false) or probe slices ([slice] true); the number of non-empty
   ranges. *)
let set_ranges p ~slice =
  let active = ref 0 in
  for t = 0 to Array.length p.indexes - 1 do
    let ix = p.indexes.(t) and g = p.groups.(t) in
    let starts = if slice then ix.pstarts else ix.starts in
    if g < 0 then begin
      p.cur.(t) <- 0;
      p.stop.(t) <- 0
    end
    else begin
      p.cur.(t) <- starts.(g);
      p.stop.(t) <- starts.(g + 1);
      if starts.(g + 1) > starts.(g) then incr active
    end
  done;
  !active

(* The size of the union of the ranges [set_ranges] set, [active] of
   them non-empty; consumes them. *)
let union_size p active =
  let n = ref 0 in
  if active <= 1 then
    for t = 0 to Array.length p.cur - 1 do
      n := !n + p.stop.(t) - p.cur.(t)
    done
  else
    while next_union p p.order >= 0 do
      incr n
    done;
  !n

(* Test ON on the left row and right row [i] (unless the key match
   decides it); if it holds, charge the joined row — its wire size is
   the sum of its halves' — and emit the pair. *)
let test_pair ctx p emit (lrow : Tuple.t) i =
  let rrow = p.right.(i) in
  if p.keys_decide || p.on lrow rrow then begin
    p.matched <- true;
    if p.lbytes = 0 then p.lbytes <- Tuple.wire_size lrow;
    let bytes = p.lbytes + p.right_bytes.(i) in
    charge_emit_bytes ctx bytes;
    emit lrow rrow bytes
  end

(* Probe one left row, whose carried figure is [lbytes]: charge its
   candidates as probed, emit each pair that satisfies ON in ascending
   right-row order, then the NULL pad of an unmatched outer row. *)
let probe_row ctx p emit (lrow : Tuple.t) lbytes =
  p.matched <- false;
  p.lbytes <- lbytes;
  if p.full then begin
    let n = Array.length p.right in
    charge ctx `Probe n;
    p.tested <- p.tested + n;
    for i = 0 to n - 1 do
      test_pair ctx p emit lrow i
    done
  end
  else begin
    for t = 0 to Array.length p.indexes - 1 do
      let ix = p.indexes.(t) in
      p.groups.(t) <-
        find_group p.right ix lrow (Tuple.hash_at ix.lk lrow land ix.mask)
    done;
    charge ctx `Probe (union_size p (set_ranges p ~slice:false));
    (* ON runs on the union of the probe slices, in ascending order *)
    if set_ranges p ~slice:true <= 1 then
      for t = 0 to Array.length p.cur - 1 do
        let src = p.porder.(t) in
        p.tested <- p.tested + p.stop.(t) - p.cur.(t);
        for k = p.cur.(t) to p.stop.(t) - 1 do
          test_pair ctx p emit lrow src.(k)
        done
      done
    else begin
      let i = ref (next_union p p.porder) in
      while !i >= 0 do
        p.tested <- p.tested + 1;
        test_pair ctx p emit lrow !i;
        i := next_union p p.porder
      done
    end
  end;
  if (not p.matched) && p.outer then begin
    let lbytes = if p.lbytes = 0 then Tuple.wire_size lrow else p.lbytes in
    let bytes = lbytes + p.pad_bytes in
    charge_emit_bytes ctx bytes;
    emit lrow p.null_pad bytes
  end

(* Run a join: index [right] (wire sizes [right_bytes]), probe every
   left row [iter_left] yields with its carried figure, and pass each
   output row to [consume] as (left row, right row, wire size). *)
let run_join ctx (info : P.join_info) ~nleft ~iter_left right right_bytes consume =
  let probed0 = ctx.st.probed in
  let p = probe_create info right right_bytes in
  iter_left (probe_row ctx p consume);
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [
        Obs.Attr.string "kind"
          (match info.P.kind with
          | Sql.Inner -> "inner"
          | Sql.Left_outer -> "left-outer");
        Obs.Attr.int "left_rows" nleft;
        Obs.Attr.int "right_rows" (Array.length right);
        Obs.Attr.int "probed" (ctx.st.probed - probed0);
        Obs.Attr.int "tested" p.tested;
      ]

(* --- sorting ------------------------------------------------------------ *)

(* A sort key read in place: a column of the row, or a computed
   expression evaluated at each comparison. *)
type sort_key = Col of int | Computed of (Tuple.t -> Value.t)

(* The row order of [keys]: the total value order key by key, negated
   for [Desc]. *)
let row_compare keys =
  let ks =
    Array.of_list
      (List.map
         (fun (r, dir) ->
           ( (match r with Expr.R_col i -> Col i | r -> Computed (Expr.compile r)),
             dir = Sql.Desc ))
         keys)
  in
  let nkeys = Array.length ks in
  (* built once, so a comparison allocates no closure *)
  let rec go (a : Tuple.t) (b : Tuple.t) i =
    if i >= nkeys then 0
    else
      let k, desc = ks.(i) in
      let c =
        match k with
        | Col j -> Value.compare_total a.(j) b.(j)
        | Computed f -> Value.compare_total (f a) (f b)
      in
      let c = if desc then -c else c in
      if c <> 0 then c else go a b (i + 1)
  in
  fun a b -> go a b 0

(* Merge the ascending runs lo..mid-1 and mid..hi-1 of [rows] (with
   their [bytes] beside them) into [drows]/[dbytes] at lo..hi-1; on a tie
   the left row goes first. *)
let merge_runs cmp (rows : Tuple.t array) bytes lo mid hi drows dbytes =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    let from = if !j >= hi || (!i < mid && cmp rows.(!i) rows.(!j) <= 0) then i else j in
    drows.(k) <- rows.(!from);
    dbytes.(k) <- bytes.(!from);
    incr from
  done

let sort_rows keys (rows : Tuple.t array) (bytes : int array) =
  let cmp = row_compare keys in
  let n = Array.length rows in
  (* the starts of the maximal non-descending runs after the first *)
  let starts = ref [] and runs = ref (min n 1) in
  for i = 1 to n - 1 do
    if cmp rows.(i - 1) rows.(i) > 0 then begin
      starts := i :: !starts;
      incr runs
    end
  done;
  if !runs <= 1 then (rows, bytes, !runs)
  else begin
    (* bottom-up: each pass merges runs pairwise, halving their number;
       [bounds] holds the run starts, then [n] *)
    let rec pass rows bytes drows dbytes bounds =
      let nr = Array.length bounds - 1 in
      if nr = 1 then (rows, bytes)
      else begin
        let next = Array.make (((nr + 1) / 2) + 1) n in
        let r = ref 0 in
        while !r < nr do
          let lo = bounds.(!r) in
          if !r + 1 < nr then
            merge_runs cmp rows bytes lo bounds.(!r + 1) bounds.(!r + 2) drows dbytes
          else begin
            Array.blit rows lo drows lo (n - lo);
            Array.blit bytes lo dbytes lo (n - lo)
          end;
          next.(!r / 2) <- lo;
          r := !r + 2
        done;
        pass drows dbytes rows bytes next
      end
    in
    let bounds = Array.of_list (0 :: List.rev_append !starts [ n ]) in
    let rows, bytes = pass rows bytes (Array.make n rows.(0)) (Array.make n 0) bounds in
    (rows, bytes, !runs)
  end

(* Sort [rows] on [keys], their wire sizes [bytes] beside them —
   charging it as one sort of [total] charged bytes — and return both in
   sorted order. *)
let exec_sort ctx (n : P.node) keys rows bytes total =
  let nrows = Array.length rows in
  let spill0 = ctx.st.spill_passes in
  charge_sort ctx nrows total;
  let spills = ctx.st.spill_passes - spill0 in
  ctx.st.actuals.spills.(n.id) <- spills;
  let rows, bytes, runs = sort_rows keys rows bytes in
  if Obs.Span.tracing () then begin
    Obs.Span.add_list [ Obs.Attr.int "bytes" total; Obs.Attr.int "runs" runs ];
    if spills > 0 then
      Obs.Event.warn "exec.spill"
        ~attrs:
          [
            Obs.Attr.int "rows" nrows;
            Obs.Attr.int "bytes" total;
            Obs.Attr.int "passes" spills;
          ]
  end;
  (rows, bytes)

(* --- the interpreter --------------------------------------------------- *)

(* Batch builder: accumulates operator output into fixed-size chunks. *)
type bb = {
  bb_uncharged : int; (* every batch's [Batch.uncharged] *)
  mutable bb_cur : Batch.t;
  mutable bb_done : Batch.t list;
}

let bb_create ?(uncharged = 0) () =
  { bb_uncharged = uncharged; bb_cur = Batch.create ~uncharged (); bb_done = [] }

let bb_push bb bytes row =
  if Batch.is_full bb.bb_cur then begin
    bb.bb_done <- bb.bb_cur :: bb.bb_done;
    bb.bb_cur <- Batch.create ~uncharged:bb.bb_uncharged ()
  end;
  Batch.push bb.bb_cur ~bytes row

let bb_finish bb =
  if Batch.length bb.bb_cur = 0 then List.rev bb.bb_done
  else List.rev (bb.bb_cur :: bb.bb_done)

let batch_rows batches =
  List.fold_left (fun acc b -> acc + Batch.length b) 0 batches

(* A projection item over (left row, right row): a column of either
   row, a literal, or any other expression, compiled by
   {!Expr.compile_join}. *)
type item =
  | Lcol of int
  | Rcol of int
  | Lit of Value.t
  | Fn of (Tuple.t -> Tuple.t -> Value.t)

(* A projection compiled over (left row, right row), the left row having
   [split] columns; over any input but a join, the whole row is the left
   one.  A row's charged bytes are [lit_bytes], the charged literals'
   sizes, plus the sizes of the other items, which are [measured]; its
   wire size adds [uncharged], the uncharged literals' sizes.  Only
   literals may go uncharged. *)
type projection = {
  items : item array;
  measured : bool array;
  lit_bytes : int;
  uncharged : int;
}

let projection ~split (items : Expr.resolved array) (charged : bool array) =
  let item = function
    | Expr.R_col i -> if i < split then Lcol i else Rcol (i - split)
    | Expr.R_lit v -> Lit v
    | e -> Fn (Expr.compile_join ~split e)
  in
  let items = Array.map item items in
  let measured = Array.make (Array.length items) false in
  let lit_bytes = ref 0 and uncharged = ref 0 in
  Array.iteri
    (fun k it ->
      match it with
      | Lit v ->
          let b = if charged.(k) then lit_bytes else uncharged in
          b := !b + Value.wire_size v
      | _ ->
          if not charged.(k) then
            invalid_arg "Executor: a projection leaves a computed column uncharged";
          measured.(k) <- true)
    items;
  { items; measured; lit_bytes = !lit_bytes; uncharged = !uncharged }

(* Build the projection's row of (l, r), charge its bytes and push it
   with its wire size. *)
let project_pair ctx pr bb (l : Tuple.t) (r : Tuple.t) =
  let n = Array.length pr.items in
  let t = Array.make n Value.Null in
  let bytes = ref pr.lit_bytes in
  for k = 0 to n - 1 do
    let v =
      match pr.items.(k) with
      | Lcol i -> l.(i)
      | Rcol i -> r.(i)
      | Lit v -> v
      | Fn f -> f l r
    in
    t.(k) <- v;
    if pr.measured.(k) then bytes := !bytes + Value.wire_size v
  done;
  charge_emit_bytes ctx !bytes;
  bb_push bb (!bytes + pr.uncharged) t

(* --- shared subtrees ----------------------------------------------------- *)

(* A subtree's run, kept in a {!Share} store: its output, and what it
   charged — the meter's deltas, and its nodes' rows, cost and spills in
   pre-order. *)
type entry = { batches : Batch.t list; delta : stats }

let subtree_ids (n : P.node) =
  let ids = ref [] in
  P.iter_node (fun m -> ids := m.P.id :: !ids) n;
  Array.of_list (List.rev !ids)

(* What the run of [n]'s subtree charged since [c0], a copy of the
   stats taken before it. *)
let record ctx (n : P.node) c0 batches =
  let st = ctx.st and a = ctx.st.actuals and ids = subtree_ids n in
  let at f = Array.map (fun id -> f.(id)) ids in
  {
    batches;
    delta =
      {
        scanned = st.scanned - c0.scanned;
        probed = st.probed - c0.probed;
        emitted = st.emitted - c0.emitted;
        sorted = st.sorted - c0.sorted;
        spill_passes = st.spill_passes - c0.spill_passes;
        work = st.work - c0.work;
        actuals = { rows = at a.rows; cost = at a.cost; spills = at a.spills; ns = [||] };
        replayed = [];
      };
  }

(* Charge a stored run of [n]'s subtree as if it ran here: the same
   counters, the same figures per node, then the budget check the run
   would have failed — charges only grow, so it fails exactly when the
   total passes the budget.  Its nodes did not run here: their times
   stay unknown. *)
let replay ctx (n : P.node) e owner =
  let st = ctx.st and d = e.delta in
  st.scanned <- st.scanned + d.scanned;
  st.probed <- st.probed + d.probed;
  st.emitted <- st.emitted + d.emitted;
  st.sorted <- st.sorted + d.sorted;
  st.spill_passes <- st.spill_passes + d.spill_passes;
  st.work <- st.work + d.work;
  Array.iteri
    (fun k id ->
      st.actuals.rows.(id) <- d.actuals.rows.(k);
      st.actuals.cost.(id) <- d.actuals.cost.(k);
      st.actuals.spills.(id) <- d.actuals.spills.(k);
      st.actuals.ns.(id) <- -1)
    (subtree_ids n);
  st.replayed <- { r_node = n.P.id; r_owner = owner; r_work = d.work } :: st.replayed;
  if ctx.budget > 0 && st.work > ctx.budget then raise Timeout;
  e.batches

(* Run node [n]'s own work [f], its inputs having run, and record its
   actuals: the rows of the batches [f] returns, the work charged
   meanwhile and the interval's ns.  A projection [fused] into a join is
   built inside the join's [f]: it takes those rows and the work [built]
   charged for them, and its time is the join's (its own ns is 0).
   Under tracing [f] runs in the node's span ["exec." ^ op_name], where
   it may add its own attributes before the node's id and actuals: its
   rows, its work and a sort's spill passes. *)
let own ?fused ctx (n : P.node) f =
  let run () =
    let w0 = ctx.st.work and t0 = Obs.Clock.now_ns () in
    let batches = f () in
    let a = ctx.st.actuals and id = n.P.id and rows = batch_rows batches in
    a.ns.(id) <- Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0);
    a.rows.(id) <- rows;
    a.cost.(id) <- ctx.st.work - w0;
    Option.iter
      (fun ((p : P.node), built) ->
        a.rows.(p.id) <- rows;
        a.cost.(p.id) <- !built;
        a.ns.(p.id) <- 0;
        a.cost.(id) <- a.cost.(id) - !built)
      fused;
    if Obs.Span.tracing () then
      Obs.Span.add_list
        (Obs.Attr.int "id" id :: Obs.Attr.int "rows" rows
        :: Obs.Attr.int "work" a.cost.(id)
        ::
        (match n.P.shape with
        | P.Sort _ -> [ Obs.Attr.int "spill_passes" a.spills.(id) ]
        | _ -> []));
    batches
  in
  if Obs.Span.tracing () then Obs.Span.with_span ("exec." ^ P.op_name n) run
  else run ()

(* Run [n], or replay it from [share]: the first run of a counted
   subtree stores its output there, later ones replay it.  Every
   consumer reads batches without writing them, so one output can feed
   any number of them. *)
let rec exec_batched ctx share (n : P.node) : Batch.t list =
  match share with
  | None -> exec_node ctx None n
  | Some sc -> (
      match Share.slot sc n with
      | -1 -> exec_node ctx share n
      | s -> (
          match Share.take sc s with
          | Some (e, owner) -> replay ctx n e owner
          | None ->
              let c0 = { ctx.st with work = ctx.st.work } in
              let batches = exec_node ctx share n in
              Share.put sc s (record ctx n c0 batches);
              batches))

and exec_node ctx share (n : P.node) : Batch.t list =
  let exec_batched = exec_batched ctx share in
  match n.P.shape with
  | P.Scan { table; cols; _ } ->
      own ctx n (fun () ->
          let data = Database.raw_data ctx.db table in
          charge ctx `Scan (Array.length data);
          if Obs.Span.tracing () then Obs.Span.add "table" (Obs.Attr.String table);
          let arity = Schema.arity (Database.schema ctx.db table) in
          let narrow = Array.length cols <> arity in
          (* Bulk-slice the base array into full batches instead of
             pushing row by row.  Scan outputs never feed a sort or the
             drain directly (a projection always intervenes), so their
             byte figures stay 0. *)
          let nrows = Array.length data in
          let rec chunks off acc =
            if off >= nrows then List.rev acc
            else
              let len = min Batch.default_size (nrows - off) in
              let rows =
                if narrow then Array.init len (fun i -> Tuple.project cols data.(off + i))
                else Array.sub data off len
              in
              chunks (off + len) (Batch.of_rows rows :: acc)
          in
          chunks 0 [])
  | P.Dual ->
      own ctx n (fun () ->
          let b = Batch.create () in
          Batch.push b ~bytes:0 [||];
          [ b ])
  | P.Filter { input; pred; charged; _ } ->
      let inb = exec_batched input in
      own ctx n (fun () ->
          let batches = List.map (Batch.filter (Expr.compile_pred pred)) inb in
          if charged then charge ctx `Emit (batch_rows batches);
          batches)
  | P.Project
      { input = { P.shape = P.Join { left; right; info }; _ } as join; items; charged; _ }
    ->
      (* built inside the join's probe, from each output pair *)
      let pr = projection ~split:info.P.split items charged in
      exec_join ctx share ~fused:(n, pr) join info left right
  | P.Project { input; items; charged; _ } ->
      let inb = exec_batched input in
      own ctx n (fun () ->
          let pr = projection ~split:max_int items charged in
          let bb = bb_create ~uncharged:pr.uncharged () in
          List.iter (Batch.iter (fun row _ -> project_pair ctx pr bb row [||])) inb;
          bb_finish bb)
  | P.Join { left; right; info } -> exec_join ctx share n info left right
  | P.Union ns ->
      let inbs = List.map exec_batched ns in
      own ctx n (fun () -> List.concat inbs)
  | P.Derived { input; _ } ->
      let inb = exec_batched input in
      own ctx n (fun () -> inb)
  | P.Sort { input; keys; _ } ->
      let inb = exec_batched input in
      own ctx n (fun () ->
          (* one output batch: the sorted rows, with their wire sizes;
             the charge leaves out each input batch's uncharged bytes *)
          let nrows = batch_rows inb in
          let rows = Array.make nrows [||] and bytes = Array.make nrows 0 in
          let i = ref 0 and total = ref 0 in
          List.iter
            (fun batch ->
              total := !total - (Batch.length batch * Batch.uncharged batch);
              Batch.iter
                (fun row b ->
                  rows.(!i) <- row;
                  bytes.(!i) <- b;
                  total := !total + b;
                  incr i)
                batch)
            inb;
          let rows, bytes = exec_sort ctx n keys rows bytes !total in
          if nrows = 0 then [] else [ Batch.of_rows ~bytes rows ])

(* Run a join node's inputs, then the join, which builds each output
   row: the concatenation of its pair, or the row of the projection
   [fused] over the join. *)
and exec_join ctx share ?fused (n : P.node) (info : P.join_info) left right =
  let left = exec_batched ctx share left in
  let right = exec_batched ctx share right in
  let uncharged = match fused with Some (_, pr) -> pr.uncharged | None -> 0 in
  let bb = bb_create ~uncharged () and built = ref 0 in
  let consume =
    match fused with
    | None -> fun l r bytes -> bb_push bb bytes (Tuple.concat l r)
    | Some (_, pr) ->
        fun l r _ ->
          let w = ctx.st.work in
          project_pair ctx pr bb l r;
          built := !built + ctx.st.work - w
  in
  own ?fused:(Option.map (fun (p, _) -> (p, built)) fused) ctx n (fun () ->
      let nright = batch_rows right in
      let right_arr = Array.make nright [||] and right_bytes = Array.make nright 0 in
      let ri = ref 0 in
      List.iter
        (Batch.iter (fun row b ->
             right_arr.(!ri) <- row;
             right_bytes.(!ri) <- (if b = 0 then Tuple.wire_size row else b);
             incr ri))
        right;
      run_join ctx info ~nleft:(batch_rows left)
        ~iter_left:(fun f -> List.iter (Batch.iter f) left)
        right_arr right_bytes consume;
      bb_finish bb)

(* --- entry points ------------------------------------------------------ *)

let stats_attrs st =
  [
    Obs.Attr.int "scanned" st.scanned;
    Obs.Attr.int "probed" st.probed;
    Obs.Attr.int "emitted" st.emitted;
    Obs.Attr.int "sorted" st.sorted;
    Obs.Attr.int "spill_passes" st.spill_passes;
    Obs.Attr.int "work" st.work;
  ]

let run_plan_batches_with_stats ?(budget = 0) ?(profile = default_profile) ?share db
    (plan : P.plan) =
  Option.iter
    (fun sc ->
      if Share.plan sc != plan then
        invalid_arg "Executor: the share scope was counted for another plan")
    share;
  let st = { (new_stats ()) with actuals = P.no_actuals plan } in
  let ctx = { db; st; budget; profile } in
  let batches = exec_batched ctx share plan.P.root in
  (batches, ctx.st)

let run_plan_with_stats ?budget ?profile ?share db (p : P.plan) =
  let batches, st = run_plan_batches_with_stats ?budget ?profile ?share db p in
  (Relation.create p.P.cols (List.concat_map Batch.to_list batches), st)
