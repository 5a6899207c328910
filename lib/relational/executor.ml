(* Query execution.

   The engine runs physical plans: [run]/[run_with_stats] lower the SQL AST
   into the logical algebra (name resolution done once, greedy
   connected-join ordering fixed at plan time), rewrite it (predicate
   pushdown, constant folding, projection pruning), convert it to a
   {!Physical.plan} (hash joins where the ON disjuncts provide column
   equalities — including the OR-expansion the unified outer-join plans
   need — nested loops otherwise), and interpret that plan.

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

type stats = {
  mutable scanned : int;       (* rows read from stored tables *)
  mutable probed : int;        (* join candidate pairs examined *)
  mutable emitted : int;       (* rows produced by operators *)
  mutable sorted : int;        (* rows passed through sort *)
  mutable spill_passes : int;  (* external-sort merge passes *)
  mutable work : int;          (* total work units, drives the budget *)
}

let new_stats () =
  { scanned = 0; probed = 0; emitted = 0; sorted = 0; spill_passes = 0; work = 0 }

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
let w_scan = 1
let w_probe = 1
let w_emit = 2
let w_sort = 4

type ctx = { db : Database.t; st : stats; budget : int; profile : profile }

let charge ctx field n =
  (match field with
  | `Scan ->
      ctx.st.scanned <- ctx.st.scanned + n;
      ctx.st.work <- ctx.st.work + (n * w_scan)
  | `Probe ->
      ctx.st.probed <- ctx.st.probed + n;
      ctx.st.work <- ctx.st.work + (n * w_probe)
  | `Emit ->
      ctx.st.emitted <- ctx.st.emitted + n;
      ctx.st.work <- ctx.st.work + (n * w_emit)
  | `Sort ->
      ctx.st.sorted <- ctx.st.sorted + n;
      ctx.st.work <- ctx.st.work + (n * w_sort));
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

(* --- shared join machinery -------------------------------------------- *)

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
    in
    go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end

module KeyTbl = Hashtbl.Make (Key)

(* ===================================================================== *)
(* Physical-plan execution over {!Batch.t} chunks of                     *)
(* {!Batch.default_size} rows, with expressions compiled once per        *)
(* operator; filters refine selection vectors in place instead of        *)
(* copying rows.  Charges mirror the seed interpreter operator for       *)
(* operator; only the rewriter-granted discounts differ (narrow emission *)
(* masks, pruned widths, uncharged relocated ON predicates).  Every row  *)
(* carries its charged-byte figure: what emission charged for it and     *)
(* what a downstream sort charges again — full wire size everywhere      *)
(* except under an output projection's literal-column mask.              *)
(* ===================================================================== *)

module P = Physical

let masked_size (mask : bool array) (t : Tuple.t) =
  let s = ref 0 in
  Array.iteri (fun i v -> if mask.(i) then s := !s + Value.wire_size v) t;
  !s

(* --- the join probe ---------------------------------------------------- *)

(* A physical join's right side, indexed once per execution.  Each
   distinct (left key, right key) position pair among the ON disjuncts
   (the OR-expansion) gets one table whose buckets list right-row
   indices in ascending order.  A left row's candidates are the union of
   its buckets — or every right row when some disjunct has no equality
   — enumerated ascending without duplicates: one bucket is walked in
   place, several are merged into scratch arrays, and the no-key case
   walks the index range.  ON is tested on the (left row, right row)
   pair in place, so nothing per left row allocates except accepted
   rows and NULL pads. *)
type table = {
  lk : int array; (* left key positions *)
  ids : int KeyTbl.t; (* right key -> bucket number *)
  buckets : int array array; (* right-row indices per key, ascending *)
  key : Value.t array; (* reusable lookup key *)
}

type probe = {
  right : Tuple.t array;
  right_bytes : int array; (* wire size of each right row *)
  full : bool; (* some disjunct has no equality: every row is a candidate *)
  tables : table array;
  on : Tuple.t -> Tuple.t -> bool; (* ON over (left row, right row) *)
  outer : bool;
  null_pad : Tuple.t;
  pad_bytes : int;
  mutable cand : int array; (* current candidates: a bucket or a scratch *)
  scratch : int array array; (* two merge buffers when there are several tables *)
}

let no_rows : int array = [||]

let probe_create (info : P.join_info) (right : Tuple.t array) =
  let nright = Array.length right in
  let full = List.exists (fun (lk, _) -> Array.length lk = 0) info.P.disjuncts in
  let pairs = if full then [] else List.sort_uniq compare info.P.disjuncts in
  let table (lk, rk) =
    let ids = KeyTbl.create (max 16 nright) in
    let group = Array.make nright 0 and count = Array.make nright 0 in
    for idx = 0 to nright - 1 do
      let k = Tuple.project rk right.(idx) in
      let g =
        match KeyTbl.find ids k with
        | g -> g
        | exception Not_found ->
            let g = KeyTbl.length ids in
            KeyTbl.add ids k g;
            g
      in
      group.(idx) <- g;
      count.(g) <- count.(g) + 1
    done;
    let buckets = Array.init (KeyTbl.length ids) (fun g -> Array.make count.(g) 0) in
    Array.fill count 0 (Array.length buckets) 0;
    for idx = 0 to nright - 1 do
      let g = group.(idx) in
      buckets.(g).(count.(g)) <- idx;
      count.(g) <- count.(g) + 1
    done;
    { lk; ids; buckets; key = Array.make (Array.length lk) Value.Null }
  in
  let tables = Array.of_list (List.map table pairs) in
  let null_pad = Tuple.all_null info.P.right_width in
  {
    right;
    right_bytes = Array.map Tuple.wire_size right;
    full;
    tables;
    on = Expr.compile_join_pred ~split:info.P.split info.P.on;
    outer = info.P.kind = Sql.Left_outer;
    null_pad;
    pad_bytes = Tuple.wire_size null_pad;
    cand = no_rows;
    scratch =
      (if Array.length tables > 1 then [| Array.make nright 0; Array.make nright 0 |]
       else [||]);
  }

let bucket t (lrow : Tuple.t) =
  for i = 0 to Array.length t.lk - 1 do
    t.key.(i) <- lrow.(t.lk.(i))
  done;
  match KeyTbl.find t.ids t.key with
  | g -> t.buckets.(g)
  | exception Not_found -> no_rows

(* Merge the ascending, duplicate-free a.(0..na-1) and b into dst; the
   merged length. *)
let merge_into a na b dst =
  let nb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    dst.(!k) <- (if x <= y then x else y);
    if x <= y then incr i;
    if y <= x then incr j;
    incr k
  done;
  Array.blit a !i dst !k (na - !i);
  k := !k + na - !i;
  Array.blit b !j dst !k (nb - !j);
  !k + nb - !j

(* Set [p.cand] to the left row's candidates; their count. *)
let candidates p lrow =
  if p.full then Array.length p.right
  else
    let nt = Array.length p.tables in
    if nt = 0 then 0
    else begin
      let first = bucket p.tables.(0) lrow in
      p.cand <- first;
      let n = ref (Array.length first) in
      for t = 1 to nt - 1 do
        let b = bucket p.tables.(t) lrow in
        if Array.length b > 0 then
          if !n = 0 then begin
            p.cand <- b;
            n := Array.length b
          end
          else begin
            let dst = p.scratch.(if p.cand == p.scratch.(0) then 1 else 0) in
            n := merge_into p.cand !n b dst;
            p.cand <- dst
          end
      done;
      !n
    end

(* Probe one left row: charge its candidates as probed, emit each joined
   row that satisfies ON in ascending right-row order, then the NULL pad
   of an unmatched outer row.  A joined row is built only once ON has
   accepted its pair; its wire size is the sum of its halves', so it is
   charged without walking the joined row. *)
let probe_row ctx p emit (lrow : Tuple.t) =
  let n = candidates p lrow in
  charge ctx `Probe n;
  let matched = ref false and lbytes = ref (-1) in
  for c = 0 to n - 1 do
    let i = if p.full then c else p.cand.(c) in
    let rrow = p.right.(i) in
    if p.on lrow rrow then begin
      matched := true;
      if !lbytes < 0 then lbytes := Tuple.wire_size lrow;
      charge_emit_bytes ctx (!lbytes + p.right_bytes.(i));
      emit (Tuple.concat lrow rrow)
    end
  done;
  if (not !matched) && p.outer then begin
    let padded = Tuple.concat lrow p.null_pad in
    charge_emit_bytes ctx (Tuple.wire_size lrow + p.pad_bytes);
    emit padded
  end

(* Run a join node: index [right], probe every left row [iter_left]
   yields, and pass each output row to [emit]. *)
let run_join ctx (n : P.node) (info : P.join_info) ~nleft ~iter_left right emit =
  let work0 = ctx.st.work in
  let probed0 = ctx.st.probed and emitted0 = ctx.st.emitted in
  let p = probe_create info right in
  let out_rows = ref 0 in
  iter_left
    (probe_row ctx p (fun t ->
         incr out_rows;
         emit t));
  n.P.act_cost <- ctx.st.work - work0;
  if Obs.Span.tracing () then begin
    Obs.Span.set_name (if p.full then "exec.nested-loop" else "exec.hash-join");
    Obs.Span.add_list
      [
        Obs.Attr.string "kind"
          (match info.P.kind with
          | Sql.Inner -> "inner"
          | Sql.Left_outer -> "left-outer");
        Obs.Attr.int "left_rows" nleft;
        Obs.Attr.int "right_rows" (Array.length right);
        Obs.Attr.int "out_rows" !out_rows;
        Obs.Attr.int "probed" (ctx.st.probed - probed0);
        Obs.Attr.int "emitted" (ctx.st.emitted - emitted0);
        Obs.Attr.int "work" (ctx.st.work - work0);
      ];
    Obs.Metrics.incr ~by:(ctx.st.probed - probed0) "exec.rows_probed";
    Obs.Metrics.observe "exec.join.out_rows" (float_of_int !out_rows)
  end

(* Charge and trace a base-table scan (inside its exec.scan span); the
   table's rows. *)
let scan_table ctx (n : P.node) table =
  let data = Database.raw_data ctx.db table in
  let w0 = ctx.st.work in
  charge ctx `Scan (Array.length data);
  n.P.act_cost <- ctx.st.work - w0;
  if Obs.Span.tracing () then begin
    Obs.Span.add_list
      [ Obs.Attr.string "table" table; Obs.Attr.int "rows" (Array.length data) ];
    Obs.Metrics.incr ~by:(Array.length data) "exec.rows_scanned"
  end;
  data

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
  fun (a : Tuple.t) (b : Tuple.t) ->
    let rec go i =
      if i >= nkeys then 0
      else
        let k, desc = ks.(i) in
        let c =
          match k with
          | Col j -> Value.compare_total a.(j) b.(j)
          | Computed f -> Value.compare_total (f a) (f b)
        in
        let c = if desc then -c else c in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* Merge the ascending runs src.(lo..mid-1) and src.(mid..hi-1) into
   dst.(lo..hi-1); on a tie the left element goes first. *)
let merge_runs cmp (src : (int * Tuple.t) array) lo mid hi dst =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && cmp (snd src.(!i)) (snd src.(!j)) <= 0) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let sort_pairs keys (a : (int * Tuple.t) array) =
  let cmp = row_compare keys in
  let n = Array.length a in
  (* the starts of the maximal non-descending runs after the first *)
  let starts = ref [] and runs = ref (min n 1) in
  for i = 1 to n - 1 do
    if cmp (snd a.(i - 1)) (snd a.(i)) > 0 then begin
      starts := i :: !starts;
      incr runs
    end
  done;
  if !runs <= 1 then (a, !runs)
  else begin
    (* bottom-up: each pass merges runs pairwise, halving their number;
       [bounds] holds the run starts, then [n] *)
    let rec pass src dst bounds =
      let nr = Array.length bounds - 1 in
      if nr = 1 then src
      else begin
        let next = Array.make (((nr + 1) / 2) + 1) n in
        let r = ref 0 in
        while !r < nr do
          let lo = bounds.(!r) in
          if !r + 1 < nr then
            merge_runs cmp src lo bounds.(!r + 1) bounds.(!r + 2) dst
          else Array.blit src lo dst lo (n - lo);
          next.(!r / 2) <- lo;
          r := !r + 2
        done;
        pass dst src next
      end
    in
    let bounds = Array.of_list (0 :: List.rev_append !starts [ n ]) in
    (pass a (Array.make n a.(0)) bounds, !runs)
  end

(* Sort (bytes, row) pairs on [keys] — charging it as one sort of
   their summed charged bytes — and return them in sorted order. *)
let exec_sort ctx (n : P.node) keys (pairs : (int * Tuple.t) array) =
  Obs.Span.with_span "exec.sort" (fun () ->
      let rows = Array.length pairs in
      let bytes = Array.fold_left (fun acc (b, _) -> acc + b) 0 pairs in
      let spill0 = ctx.st.spill_passes and work0 = ctx.st.work in
      charge_sort ctx rows bytes;
      (match n.P.shape with
      | P.Sort s -> s.act_spills <- ctx.st.spill_passes - spill0
      | _ -> ());
      n.P.act_cost <- ctx.st.work - work0;
      let sorted, runs = sort_pairs keys pairs in
      if Obs.Span.tracing () then begin
        let spills = ctx.st.spill_passes - spill0 in
        Obs.Span.add_list
          [
            Obs.Attr.int "rows" rows;
            Obs.Attr.int "bytes" bytes;
            Obs.Attr.int "runs" runs;
            Obs.Attr.int "spill_passes" spills;
            Obs.Attr.int "work" (ctx.st.work - work0);
          ];
        Obs.Metrics.observe "exec.sort.bytes" (float_of_int bytes);
        if spills > 0 then begin
          Obs.Metrics.incr ~by:spills "exec.spill_passes";
          Obs.Event.warn "exec.spill"
            ~attrs:
              [
                Obs.Attr.int "rows" rows;
                Obs.Attr.int "bytes" bytes;
                Obs.Attr.int "passes" spills;
              ]
        end
      end;
      sorted)

(* --- the interpreter --------------------------------------------------- *)

(* Batch builder: accumulates operator output into fixed-size chunks. *)
type bb = { mutable bb_cur : Batch.t; mutable bb_done : Batch.t list }

let bb_create () = { bb_cur = Batch.create (); bb_done = [] }

let bb_push bb bytes row =
  if Batch.is_full bb.bb_cur then begin
    bb.bb_done <- bb.bb_cur :: bb.bb_done;
    bb.bb_cur <- Batch.create ()
  end;
  Batch.push bb.bb_cur ~bytes row

let bb_finish bb =
  if Batch.length bb.bb_cur = 0 then List.rev bb.bb_done
  else List.rev (bb.bb_cur :: bb.bb_done)

let batch_rows batches =
  List.fold_left (fun acc b -> acc + Batch.length b) 0 batches

let rec exec_batched ctx (n : P.node) : Batch.t list =
  let batches =
    match n.P.shape with
    | P.Scan { table; cols; _ } ->
        Obs.Span.with_span "exec.scan" (fun () ->
            let data = scan_table ctx n table in
            let arity = Schema.arity (Database.schema ctx.db table) in
            let narrow = Array.length cols <> arity in
            (* Bulk-slice the base array into full batches instead of
               pushing row by row.  Scan outputs never feed a sort
               directly (a projection always intervenes), so their
               charged-byte figures stay 0. *)
            let nrows = Array.length data in
            let rec chunks off acc =
              if off >= nrows then List.rev acc
              else
                let len = min Batch.default_size (nrows - off) in
                let rows =
                  if narrow then
                    Array.init len (fun i -> Tuple.project cols data.(off + i))
                  else Array.sub data off len
                in
                chunks (off + len) (Batch.of_rows rows :: acc)
            in
            chunks 0 [])
    | P.Dual ->
        n.P.act_cost <- 0;
        let b = Batch.create () in
        Batch.push b [||];
        [ b ]
    | P.Filter { input; pred; charged; _ } ->
        let batches = exec_batched ctx input in
        let w0 = ctx.st.work in
        let p = Expr.compile_pred pred in
        let survivors =
          List.fold_left (fun acc b -> acc + Batch.keep p b) 0 batches
        in
        if charged then charge ctx `Emit survivors;
        n.P.act_cost <- ctx.st.work - w0;
        batches
    | P.Project { input; items; charged; _ } ->
        let inb = exec_batched ctx input in
        let w0 = ctx.st.work in
        let full = Array.for_all (fun c -> c) charged in
        let fns = Array.map Expr.compile items in
        let bb = bb_create () in
        List.iter
          (fun b ->
            Batch.iter
              (fun row _ ->
                let t = Array.map (fun f -> f row) fns in
                let bytes =
                  if full then Tuple.wire_size t else masked_size charged t
                in
                charge_emit_bytes ctx bytes;
                bb_push bb bytes t)
              b)
          inb;
        n.P.act_cost <- ctx.st.work - w0;
        bb_finish bb
    | P.Join { left; right; info } ->
        let l = exec_batched ctx left in
        let r = exec_batched ctx right in
        Obs.Span.with_span "exec.join" (fun () ->
            exec_join_batched ctx n info l r)
    | P.Union ns -> List.concat_map (exec_batched ctx) ns
    | P.Derived { input; _ } -> exec_batched ctx input
    | P.Sort { input; keys; _ } ->
        let inb = exec_batched ctx input in
        let pairs = Array.make (batch_rows inb) (0, [||]) in
        let i = ref 0 in
        List.iter
          (Batch.iter (fun row bytes ->
               pairs.(!i) <- (bytes, row);
               incr i))
          inb;
        let bb = bb_create () in
        Array.iter (fun (b, t) -> bb_push bb b t) (exec_sort ctx n keys pairs);
        bb_finish bb
  in
  n.P.act_rows <- batch_rows batches;
  batches

and exec_join_batched ctx (n : P.node) (info : P.join_info) left right :
    Batch.t list =
  let right_arr = Array.make (batch_rows right) [||] in
  let ri = ref 0 in
  List.iter
    (Batch.iter (fun row _ ->
         right_arr.(!ri) <- row;
         incr ri))
    right;
  let bb = bb_create () in
  run_join ctx n info ~nleft:(batch_rows left)
    ~iter_left:(fun f -> List.iter (Batch.iter (fun row _ -> f row)) left)
    right_arr (bb_push bb 0);
  bb_finish bb

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

(* Run [plan ()] and package the output chunks with [finish]. *)
let exec_query ~budget ~profile db plan ~finish =
  let plan = plan () in
  let ctx = { db; st = new_stats (); budget; profile } in
  let batches = exec_batched ctx plan.P.root in
  (finish plan.P.cols batches, ctx.st)

let relation_of_batches cols batches =
  Relation.create cols (List.concat_map Batch.to_list batches)

let run_plan_with_stats ?(budget = 0) ?(profile = default_profile) db
    (p : P.plan) =
  exec_query ~budget ~profile db (fun () -> p) ~finish:relation_of_batches

let run_plan_cursor_with_stats ?(budget = 0) ?(profile = default_profile) db
    (p : P.plan) =
  exec_query ~budget ~profile db (fun () -> p) ~finish:Cursor.of_batches

let run_with_stats ?(budget = 0) ?(profile = default_profile) db
    (q : Sql.query) =
  exec_query ~budget ~profile db (fun () -> P.plan_of db q)
    ~finish:relation_of_batches
