(* The cost / cardinality oracle.

   Estimates are System-R style (per-table row counts from statistics,
   equality selectivity 1/max(ndv), range selectivity 1/3, independence
   across conjuncts), but they are computed over the {!Physical.plan}
   the engine actually runs: the same operator tree, the same join
   algorithms, the same narrow-emission masks.  [annotate] returns each
   node's estimated rows and cost (and sorts' spills) as the same
   per-operator deltas the executor records as its actuals, so
   estimates and meter readings are directly comparable — per
   operator, not just per query.  The greedy planner
   (paper Sec. 5) calls [estimate] through a counting wrapper so the
   experiments can report the number of oracle requests. *)

type estimate = {
  cardinality : float;
  eval_cost : float;   (* abstract work units, comparable to Executor.stats.work *)
  width : float;       (* average output tuple wire bytes *)
}

let data_size e = e.cardinality *. e.width

(* The paper's linear cost combination: cost(q,a,b) =
   a * evaluation_cost(q) + b * data_size(q). *)
let cost ~a ~b e = (a *. e.eval_cost) +. (b *. data_size e)

(* Per-column symbolic info, positional: index i describes tuple slot i
   of the operator's output, mirroring the resolved expressions.  [lit]
   marks a column that statically holds one constant (NULL padding,
   union level tags): a union of branches with *different* constants has
   ndv = number of constants, and an equality against a known constant
   is exact. *)
type colinfo = { ndv : float; cwidth : float; lit : Value.t option }

let default_col = { ndv = 10.0; cwidth = 8.0; lit = None }

let col_at (cols : colinfo array) i =
  if i >= 0 && i < Array.length cols then cols.(i) else default_col

let sel_of_cmp = function
  | Expr.Eq -> `Eq
  | Expr.Neq -> `Other
  | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> `Range

(* Selectivity of a resolved predicate against positional column info. *)
let rec selectivity cols (e : Expr.resolved) : float =
  match e with
  | Expr.R_lit (Value.Bool true) -> 1.0
  | Expr.R_lit _ -> 0.0 (* only Bool true passes WHERE semantics *)
  | Expr.R_and (x, y) -> selectivity cols x *. selectivity cols y
  | Expr.R_or (x, y) ->
      let sx = selectivity cols x and sy = selectivity cols y in
      sx +. sy -. (sx *. sy)
  | Expr.R_not x -> 1.0 -. selectivity cols x
  | Expr.R_is_null _ -> 0.1
  | Expr.R_is_not_null _ -> 0.9
  | Expr.R_cmp (op, Expr.R_col i, Expr.R_col j) -> (
      let ca = col_at cols i and cb = col_at cols j in
      match sel_of_cmp op with
      | `Eq -> 1.0 /. Float.max 1.0 (Float.max ca.ndv cb.ndv)
      | `Range -> 1.0 /. 3.0
      | `Other -> 0.9)
  | Expr.R_cmp (op, Expr.R_col i, Expr.R_lit v)
  | Expr.R_cmp (op, Expr.R_lit v, Expr.R_col i) -> (
      let ca = col_at cols i in
      match (sel_of_cmp op, ca.lit) with
      | `Eq, Some w -> if v = w then 1.0 else 0.0
      | `Eq, None -> 1.0 /. Float.max 1.0 ca.ndv
      | `Range, _ -> 1.0 /. 3.0
      | `Other, _ -> 0.9)
  | Expr.R_cmp _ -> 0.5
  | Expr.R_col _ | Expr.R_arith _ -> 1.0

(* Width / distinct-count of a projection item. *)
let ewidth cols (e : Expr.resolved) =
  match e with
  | Expr.R_col i -> (col_at cols i).cwidth
  | Expr.R_lit v -> float_of_int (Value.wire_size v)
  | _ -> default_col.cwidth

let endv cols (e : Expr.resolved) =
  match e with
  | Expr.R_col i -> (col_at cols i).ndv
  | Expr.R_lit _ -> 1.0
  | _ -> default_col.ndv

let elit cols (e : Expr.resolved) =
  match e with
  | Expr.R_col i -> (col_at cols i).lit
  | Expr.R_lit v -> Some v
  | _ -> None

let log2 x = if x <= 2.0 then 1.0 else Float.log x /. Float.log 2.0

(* Node-level info threaded through the walk.  [bytes] is the total
   charged wire bytes of the node's output — what a downstream sort
   will pay — which tracks the emission mask, not the full width. *)
type ninfo = { card : float; cols : colinfo array; bytes : float }

module P = Physical

(* Expected join probes: for each ON disjunct the hash table hands back
   the right rows equal on every key pair, so candidates shrink by
   1/max(ndv) per pair; a keyless disjunct degrades the whole join to
   nested-loop over the full cross product. *)
let probe_estimate (l : ninfo) (r : ninfo) (info : P.join_info) =
  match info.algo with
  | P.Nested_loop -> l.card *. r.card
  | P.Hash_join ->
      List.fold_left
        (fun acc (lk, rk) ->
          let s = ref 1.0 in
          Array.iteri
            (fun idx li ->
              let nl = (col_at l.cols li).ndv
              and nr = (col_at r.cols rk.(idx)).ndv in
              s := !s /. Float.max 1.0 (Float.max nl nr))
            lk;
          acc +. (l.card *. r.card *. !s))
        0.0 info.disjuncts

(* Walk the plan bottom-up, mirroring the executor's charges operator
   for operator (weights w_scan=1, w_probe=1, w_emit=2, w_sort=4, byte
   charges divided by [byte_div]).  With [into], every node's estimated
   rows and cost (and sorts' spills) go to its slots there. *)
let price ~(profile : Executor.profile) stats (p : P.plan) into : estimate =
  let bdiv = float_of_int profile.byte_div in
  let buffer = float_of_int profile.sort_buffer in
  let total = ref 0.0 in
  let set_cost (n : P.node) c =
    match into with Some (e : P.estimates) -> e.cost.(n.P.id) <- c | None -> ()
  in
  let rec go (n : P.node) : ninfo =
    let info =
      match n.P.shape with
      | P.Scan { table; col_names; _ } ->
          let ts = Stats.table_exn stats table in
          let card = float_of_int ts.Stats.row_count in
          let c0 = !total in
          total := !total +. card;
          (* w_scan = 1 per row *)
          set_cost n (!total -. c0);
          let cols =
            Array.map
              (fun c ->
                match List.assoc_opt c ts.Stats.columns with
                | Some (cs : Stats.column_stats) ->
                    {
                      ndv = float_of_int cs.distinct;
                      cwidth = cs.avg_width;
                      lit = None;
                    }
                | None -> default_col)
              col_names
          in
          { card; cols; bytes = 0.0 }
      | P.Dual ->
          set_cost n 0.0;
          { card = 1.0; cols = [||]; bytes = 0.0 }
      | P.Filter { input; pred; charged; _ } ->
          let i = go input in
          let c0 = !total in
          let sel = selectivity i.cols pred in
          let card = Float.max 1.0 (i.card *. sel) in
          (* survivors are re-emitted (w_emit = 2) unless the predicate
             was relocated from an ON condition the interpreter
             evaluated for free *)
          if charged then total := !total +. (2.0 *. card);
          set_cost n (!total -. c0);
          { card; cols = i.cols; bytes = i.bytes *. sel }
      | P.Project { input; items; charged; _ } ->
          let i = go input in
          let c0 = !total in
          let card = i.card in
          let charged_width = ref 0.0 in
          Array.iteri
            (fun k e ->
              if charged.(k) then
                charged_width := !charged_width +. ewidth i.cols e)
            items;
          (* charge_emit_bytes: w_emit plus masked bytes per row *)
          total := !total +. (card *. (2.0 +. (!charged_width /. bdiv)));
          set_cost n (!total -. c0);
          let cols =
            Array.map
              (fun e ->
                {
                  ndv = Float.min (endv i.cols e) card;
                  cwidth = ewidth i.cols e;
                  lit = elit i.cols e;
                })
              items
          in
          { card; cols; bytes = card *. !charged_width }
      | P.Join { left; right; info = ji } ->
          let l = go left in
          let r = go right in
          let c0 = !total in
          let cols = Array.append l.cols r.cols in
          let sel = selectivity cols ji.on in
          let inner = Float.max 1.0 (l.card *. r.card *. sel) in
          let card =
            match ji.kind with
            | Sql.Inner -> inner
            | Sql.Left_outer -> Float.max inner l.card
          in
          let width = Array.fold_left (fun w c -> w +. c.cwidth) 0.0 cols in
          (* probes (w_probe = 1) plus full-width emission of each
             joined row, exactly like charge_emit_row *)
          total :=
            !total
            +. probe_estimate l r ji
            +. (card *. (2.0 +. (width /. bdiv)));
          set_cost n (!total -. c0);
          { card; cols; bytes = 0.0 }
      | P.Union ns -> (
          let infos = List.map go ns in
          set_cost n 0.0;
          match infos with
          | [] -> { card = 0.0; cols = [||]; bytes = 0.0 }
          | first :: rest ->
              List.fold_left
                (fun acc i ->
                  {
                    card = acc.card +. i.card;
                    cols =
                      Array.mapi
                        (fun k c ->
                          let c' = col_at i.cols k in
                          (* branches are variants of the same entities
                             (outer-union encoding), so key domains
                             overlap: max, not sum.  Columns that are
                             per-branch constants (level tags, NULL
                             pads) are the exception — each distinct
                             constant adds one value. *)
                          let lit, ndv =
                            match (c.lit, c'.lit) with
                            | Some a, Some b when a = b ->
                                (Some a, Float.max c.ndv c'.ndv)
                            | Some _, Some _ -> (None, c.ndv +. c'.ndv)
                            | _ -> (None, Float.max c.ndv c'.ndv)
                          in
                          {
                            ndv;
                            cwidth = Float.max c.cwidth c'.cwidth;
                            lit;
                          })
                        acc.cols;
                    bytes = acc.bytes +. i.bytes;
                  })
                first rest)
      | P.Derived { input; _ } ->
          let i = go input in
          set_cost n 0.0;
          i
      | P.Sort { input; _ } ->
          let i = go input in
          let c0 = !total in
          (* w_sort = 4 per row x comparison depth *)
          total := !total +. (4.0 *. i.card *. Float.max 1.0 (log2 i.card));
          let spills =
            if i.bytes > buffer then
              int_of_float (Float.max 1.0 (log2 (i.bytes /. buffer)))
            else 0
          in
          if spills > 0 then
            total := !total +. (float_of_int spills *. i.bytes /. bdiv);
          Option.iter (fun (e : P.estimates) -> e.spills.(n.P.id) <- spills) into;
          set_cost n (!total -. c0);
          i
    in
    (match into with
    | Some (e : P.estimates) -> e.rows.(n.P.id) <- info.card
    | None -> ());
    info
  in
  let root = go p.P.root in
  let width = Array.fold_left (fun w c -> w +. c.cwidth) 0.0 root.cols in
  { cardinality = root.card; eval_cost = !total; width }

let annotate ?(profile = Executor.default_profile) stats p =
  let e = P.no_estimates p in
  (price ~profile stats p (Some e), e)

let estimate ?(profile = Executor.default_profile) stats db (q : Sql.query) =
  price ~profile stats (P.plan_of db q) None

(* A counting oracle: the experiments of Sec. 5.1 report how many
   estimate requests the greedy planner issues. *)
type oracle = {
  stats : Stats.t;
  db : Database.t;
  mutable requests : int;
}

let oracle db = { stats = Stats.analyze db; db; requests = 0 }
let oracle_with_stats db stats = { stats; db; requests = 0 }

let ask ?profile o q =
  o.requests <- o.requests + 1;
  estimate ?profile o.stats o.db q

let requests o = o.requests
let reset_requests o = o.requests <- 0
