(* The cost / cardinality oracle.

   Estimates are System-R style (per-table row counts from statistics,
   equality selectivity 1/max(ndv), range selectivity 1/3), but they are
   computed over the {!Physical.plan} the engine actually runs: the same
   operator tree, the same join algorithms, the same narrow-emission
   masks.  Like a real optimizer's, they read the source description: a
   join disjunct's cross-side equalities are priced together as one
   composite key, whose distinct count on each side is bounded by that
   side's cardinality and by the table's key or declared foreign key
   the columns come from (see [keys_ndv]); a union on a join's right is
   priced branch by branch (see [on_selectivity]); every other conjunct
   is independent.  [annotate] returns each node's estimated rows and cost
   (and sorts' spills) as the same per-operator deltas the executor
   records as its actuals, so estimates and meter readings are directly
   comparable — per operator, not just per query.  The greedy planner
   (paper Sec. 5) calls [ask] through a counting wrapper so the
   experiments can report the number of oracle requests. *)

type estimate = {
  cardinality : float;
  eval_cost : float;   (* abstract work units, comparable to Executor.stats.work *)
  width : float;       (* average output tuple wire bytes *)
  ms : float;          (* predicted executor time, the stream's constant included *)
}

(* --- the time model ------------------------------------------------------ *)

(* What one operator does, in the units its time goes by: the oracle's
   estimate of each, per node, beside the work it charges. *)
type counts = {
  scanned : float;  (* rows read from a stored table *)
  built : float;  (* right rows indexed by a join, once per hash index *)
  probed : float;  (* join candidates, as the meter charges them *)
  tested : float;  (* predicate evaluations: ON on a probe slice, a filter's input *)
  emitted : float;  (* rows a filter, projection or join produces *)
  bytes : float;  (* their wire bytes, as the meter charges them *)
  sorted : float;  (* rows through a sort *)
}

let no_counts =
  { scanned = 0.0; built = 0.0; probed = 0.0; tested = 0.0; emitted = 0.0;
    bytes = 0.0; sorted = 0.0 }

let add_counts a b =
  {
    scanned = a.scanned +. b.scanned;
    built = a.built +. b.built;
    probed = a.probed +. b.probed;
    tested = a.tested +. b.tested;
    emitted = a.emitted +. b.emitted;
    bytes = a.bytes +. b.bytes;
    sorted = a.sorted +. b.sorted;
  }

(* Nanoseconds per unit of each count, per stream (SQL print, parse,
   planning, draining) and per tuple and byte the merge-tagger writes,
   fitted by least squares to measured per-operator and tagger times
   (`bench --experiment lattice-wallclock`, which prints the fit; see
   EXPERIMENTS.md, "Measured Fig. 13/14").  A sort is priced per row,
   not per n log n comparison as the meter charges it, and a modeled
   spill pass, which has no wall-time counterpart, costs nothing. *)
type time_model = {
  scan_row : float;
  build_row : float;
  probe : float;
  test : float;
  emit_row : float;
  emit_byte : float;
  sort_row : float;
  stream : float;
  tag_tuple : float;
  tag_byte : float;
}

let time_model =
  {
    scan_row = 87.0;
    build_row = 56.0;
    probe = 34.0;
    test = 197.0;
    emit_row = 26.0;
    emit_byte = 2.2;
    sort_row = 282.0;
    stream = 182_000.0;
    tag_tuple = 866.0;
    tag_byte = 1.3;
  }

(* A node's predicted own time. *)
let node_ns (m : time_model) c =
  (m.scan_row *. c.scanned) +. (m.build_row *. c.built) +. (m.probe *. c.probed)
  +. (m.test *. c.tested) +. (m.emit_row *. c.emitted)
  +. (m.emit_byte *. c.bytes) +. (m.sort_row *. c.sorted)

(* The merge-tagger's predicted time for a stream of [e]'s rows. *)
let tag_ms e =
  ((time_model.tag_tuple *. e.cardinality)
  +. (time_model.tag_byte *. (e.cardinality *. e.width)))
  /. 1e6

(* The paper's combination in predicted milliseconds: [a] weighs the
   engine's time, [b] the time the stream's rows take to tag. *)
let time_cost ~a ~b e = (a *. e.ms) +. (b *. tag_ms e)

(* Per-column symbolic info, positional: index i describes tuple slot i
   of the operator's output, mirroring the resolved expressions.
   [consts] lists the constants a column statically holds (NULL padding,
   union level tags), empty when it is not one: a union of branches with
   different constants holds each, ndv = their count, and an equality
   against one of them selects 1/count of the rows (none against any
   other value).  [origin] is the base column the value was read from: it
   passes through filters, joins, derived tables and projections of a
   plain column, and is lost through any other expression and through
   a union, whose branches read different scans. *)
type colinfo = {
  ndv : float;
  cwidth : float;
  consts : Value.t list;
  origin : origin option;
}

(* A stored column of one scan: [scan] (the Scan node's id) tells two
   copies of a table apart, so only columns one base row carries share
   the bound of its key or foreign key. *)
and origin = { scan : int; table : Stats.table_id; pos : int }

let default_col = { ndv = 10.0; cwidth = 8.0; consts = []; origin = None }

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
      match (sel_of_cmp op, ca.consts) with
      | `Eq, [] -> 1.0 /. Float.max 1.0 ca.ndv
      | `Eq, cs ->
          if List.mem v cs then 1.0 /. float_of_int (List.length cs) else 0.0
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

let econsts cols (e : Expr.resolved) =
  match e with
  | Expr.R_col i -> (col_at cols i).consts
  | Expr.R_lit v -> [ v ]
  | _ -> []

let log2 x = if x <= 2.0 then 1.0 else Float.log x /. Float.log 2.0

(* Node-level info threaded through the walk.  [bytes] is the total
   charged wire bytes of the node's output — what a downstream sort
   will pay — which tracks the emission mask, not the full width.
   [parts] are a union's branches (through derived tables), priced one
   by one as a join's right input; empty otherwise. *)
type ninfo = {
  card : float;
  cols : colinfo array;
  bytes : float;
  parts : ninfo list;
}

module P = Physical

(* Distinct values of one join side's key columns [ks], taken together.
   The columns one scan contributes form a group: the product of their
   NDVs, capped by the distinct bound of the table's key or declared
   foreign key they cover ([Stats.distinct_bound]).  Groups, and
   columns of unknown origin, multiply, and the whole is capped by the
   side's cardinality. *)
let keys_ndv stats (side : ninfo) (ks : int array) =
  let groups = ref [] and loose = ref 1.0 in
  Array.iter
    (fun k ->
      let c = col_at side.cols k in
      match c.origin with
      | None -> loose := !loose *. c.ndv
      | Some o ->
          let bit = 1 lsl o.pos in
          let rec add = function
            | [] -> [ (o, bit, c.ndv) ]
            | (g, m, p) :: rest when g.scan = o.scan ->
                if m land bit <> 0 then (g, m, p) :: rest
                else (g, m lor bit, p *. c.ndv) :: rest
            | g :: rest -> g :: add rest
          in
          groups := add !groups)
    ks;
  Float.min side.card
    (List.fold_left
       (fun acc (g, m, p) ->
         acc *. Float.min p (Stats.distinct_bound stats g.table m))
       !loose !groups)

(* One disjunct's key pairs priced as one composite key: each left row
   meets 1/max(ndv_L, ndv_R) of the right rows, and none when a key
   column is a NULL pad, which equals nothing. *)
let keys_selectivity stats (l : ninfo) (r : ninfo) lk rk =
  let null_pad (side : ninfo) =
    Array.exists (fun k -> (col_at side.cols k).consts = [ Value.Null ])
  in
  if null_pad l lk || null_pad r rk then 0.0
  else
    1.0 /. Float.max 1.0 (Float.max (keys_ndv stats l lk) (keys_ndv stats r rk))

(* The right inputs a join is priced against: a union's branches, or
   the input itself. *)
let parts_of (r : ninfo) = match r.parts with [] -> [ r ] | ps -> ps

(* ON's selectivity.  Per disjunct (split once, by Physical): its
   cross-side column equalities as one key times its other conjuncts' selectivities; disjuncts combine
   as independent events, like [selectivity]'s OR.  A union on the
   right is priced branch by branch, each weighted by its share of the
   rows: a disjunct guarded by one branch's level tag then meets that
   branch alone, keyed on that branch's own columns. *)
let on_selectivity stats (l : ninfo) (r : ninfo) (ji : P.join_info) =
  let against (b : ninfo) =
    let cols = Array.append l.cols b.cols in
    List.fold_left
      (fun s (d : P.disjunct) ->
        let keys =
          if Array.length d.d_left_keys = 0 then 1.0
          else keys_selectivity stats l b d.d_left_keys d.d_right_keys
        in
        let sd =
          List.fold_left (fun s c -> s *. selectivity cols c) keys d.d_rest
        in
        s +. sd -. (s *. sd))
      0.0 ji.P.disjuncts
  in
  if r.card <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (b : ninfo) -> acc +. (b.card /. r.card *. against b))
      0.0 (parts_of r)

(* Expected join probes and ON tests: a left row's candidates are the
   right rows in its group of each hash index (the disjuncts sharing an
   index probe it once), priced like ON's key pairs, branch by branch
   for a union; ON is tested on those that also pass the index's guard.
   A keyless disjunct degrades the whole join to nested-loop over the
   full cross product, every pair tested. *)
let probe_estimate stats (l : ninfo) (r : ninfo) (info : P.join_info) =
  match info.algo with
  | P.Nested_loop -> (l.card *. r.card, l.card *. r.card)
  | P.Hash_join ->
      List.fold_left
        (fun acc (ix : P.index) ->
          List.fold_left
            (fun (probed, tested) (b : ninfo) ->
              let n =
                l.card *. b.card
                *. keys_selectivity stats l b ix.P.left_keys ix.P.right_keys
              in
              let pass =
                match ix.P.guard with None -> 1.0 | Some g -> selectivity b.cols g
              in
              (probed +. n, tested +. (n *. pass)))
            acc (parts_of r))
        (0.0, 0.0) info.indexes

(* Walk the plan bottom-up.  Each operator states its own counts (and a
   sort its modeled spill bytes); [did], called in post-order, turns
   them into the node's work, charged at the executor's weights exactly
   as the meter charges those counts (byte charges divided by
   [byte_div], a sort per row times its comparison depth), and into its
   predicted time.  With [into], every node's estimated rows, cost and
   time (and sorts' spills) go to its slots there; with [counts], its
   counts.  A projection over a join is built inside the join's probe,
   so, as in the executor's actuals, its counts and time go to the
   join's slots ([onto]) and its own time is 0. *)
let price ~(profile : Executor.profile) ?counts stats (p : P.plan) into :
    estimate =
  let bdiv = float_of_int profile.byte_div in
  let buffer = float_of_int profile.sort_buffer in
  let w k = float_of_int (Executor.weight k) in
  let total = ref 0.0 and total_ns = ref 0.0 in
  let did ?onto ?(spill_bytes = 0.0) (n : P.node) c =
    let work =
      (w `Scan *. c.scanned) +. (w `Probe *. c.probed) +. (w `Emit *. c.emitted)
      +. (c.bytes /. bdiv)
      +. (w `Sort *. c.sorted *. Float.max 1.0 (log2 c.sorted))
      +. (spill_bytes /. bdiv)
    in
    let ns = node_ns time_model c in
    total := !total +. work;
    total_ns := !total_ns +. ns;
    Option.iter (fun (e : P.estimates) -> e.cost.(n.P.id) <- work) into;
    match onto with
    | None ->
        Option.iter (fun (e : P.estimates) -> e.ns.(n.P.id) <- ns) into;
        Option.iter (fun a -> a.(n.P.id) <- c) counts
    | Some (j : P.node) ->
        Option.iter
          (fun (e : P.estimates) ->
            e.ns.(n.P.id) <- 0.0;
            e.ns.(j.P.id) <- e.ns.(j.P.id) +. ns)
          into;
        Option.iter (fun a -> a.(j.P.id) <- add_counts a.(j.P.id) c) counts
  in
  let rec go (n : P.node) : ninfo =
    let info =
      match n.P.shape with
      | P.Scan { table; cols = positions; _ } ->
          let tid = Stats.id stats table in
          let card = float_of_int (Stats.rows stats tid) in
          did n { no_counts with scanned = card };
          let cols =
            Array.map
              (fun pos ->
                match Stats.column_at stats tid pos with
                | Some (cs : Stats.column_stats) ->
                    {
                      ndv = float_of_int cs.distinct;
                      cwidth = cs.avg_width;
                      consts = [];
                      origin =
                        (if pos < Sys.int_size - 1 then
                           Some { scan = n.P.id; table = tid; pos }
                         else None);
                    }
                | None -> default_col)
              positions
          in
          { card; cols; bytes = 0.0; parts = [] }
      | P.Dual ->
          did n no_counts;
          { card = 1.0; cols = [||]; bytes = 0.0; parts = [] }
      | P.Filter { input; pred; charged; _ } ->
          let i = go input in
          let sel = selectivity i.cols pred in
          let card = Float.max 1.0 (i.card *. sel) in
          (* survivors are re-emitted unless the predicate was relocated
             from an ON condition the interpreter evaluated for free *)
          did n
            { no_counts with tested = i.card;
              emitted = (if charged then card else 0.0) };
          { card; cols = i.cols; bytes = i.bytes *. sel; parts = [] }
      | P.Project { input; items; charged; _ } ->
          let i = go input in
          let card = i.card in
          let charged_width = ref 0.0 in
          Array.iteri
            (fun k e ->
              if charged.(k) then
                charged_width := !charged_width +. ewidth i.cols e)
            items;
          let onto = match input.P.shape with P.Join _ -> Some input | _ -> None in
          (* each row emitted with its masked bytes *)
          did ?onto n { no_counts with emitted = card; bytes = card *. !charged_width };
          let cols =
            Array.map
              (fun e ->
                {
                  ndv = Float.min (endv i.cols e) card;
                  cwidth = ewidth i.cols e;
                  consts = econsts i.cols e;
                  origin =
                    (match e with
                    | Expr.R_col j -> (col_at i.cols j).origin
                    | _ -> None);
                })
              items
          in
          { card; cols; bytes = card *. !charged_width; parts = [] }
      | P.Join { left; right; info = ji } ->
          let l = go left in
          let r = go right in
          let cols = Array.append l.cols r.cols in
          let sel = on_selectivity stats l r ji in
          let inner = Float.max 1.0 (l.card *. r.card *. sel) in
          let card =
            match ji.kind with
            | Sql.Inner -> inner
            | Sql.Left_outer -> Float.max inner l.card
          in
          let width = Array.fold_left (fun w c -> w +. c.cwidth) 0.0 cols in
          (* probes, plus full-width emission of each joined row, like
             charge_emit_row *)
          let probed, tested = probe_estimate stats l r ji in
          did n
            {
              no_counts with
              built =
                r.card *. float_of_int (max 1 (List.length ji.P.indexes));
              probed;
              tested;
              emitted = card;
              bytes = card *. width;
            };
          { card; cols; bytes = 0.0; parts = [] }
      | P.Union ns -> (
          let infos = List.map go ns in
          did n no_counts;
          match infos with
          | [] -> { card = 0.0; cols = [||]; bytes = 0.0; parts = [] }
          | first :: rest ->
              let merged =
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
                            let consts =
                              match (c.consts, c'.consts) with
                              | [], _ | _, [] -> []
                              | a, b ->
                                  a @ List.filter (fun v -> not (List.mem v a)) b
                            in
                            {
                              ndv =
                                (match consts with
                                | [] -> Float.max c.ndv c'.ndv
                                | cs -> float_of_int (List.length cs));
                              cwidth = Float.max c.cwidth c'.cwidth;
                              consts;
                              (* each branch reads its own scans *)
                              origin = None;
                            })
                          acc.cols;
                      bytes = acc.bytes +. i.bytes;
                      parts = [];
                    })
                  first rest
              in
              { merged with parts = infos })
      | P.Derived { input; _ } ->
          let i = go input in
          did n no_counts;
          i
      | P.Sort { input; _ } ->
          let i = go input in
          let spills =
            if i.bytes > buffer then
              int_of_float (Float.max 1.0 (log2 (i.bytes /. buffer)))
            else 0
          in
          Option.iter (fun (e : P.estimates) -> e.spills.(n.P.id) <- spills) into;
          (* each spill pass rereads and rewrites the input's bytes *)
          did n { no_counts with sorted = i.card }
            ~spill_bytes:(float_of_int spills *. i.bytes);
          i
    in
    (match into with
    | Some (e : P.estimates) -> e.rows.(n.P.id) <- info.card
    | None -> ());
    info
  in
  let root = go p.P.root in
  let width = Array.fold_left (fun w c -> w +. c.cwidth) 0.0 root.cols in
  {
    cardinality = root.card;
    eval_cost = !total;
    width;
    ms = (!total_ns +. time_model.stream) /. 1e6;
  }

let annotate ?(profile = Executor.default_profile) stats p =
  let e = P.no_estimates p in
  (price ~profile stats p (Some e), e)

let counts ?(profile = Executor.default_profile) stats p =
  let a = Array.make (p.P.nodes + 1) no_counts in
  ignore (price ~profile ~counts:a stats p None);
  a

(* A counting oracle: the experiments of Sec. 5.1 report how many
   estimate requests the greedy planner issues. *)
type oracle = {
  stats : Stats.t;
  db : Database.t;
  mutable requests : int;
}

let oracle_with_stats db stats = { stats; db; requests = 0 }

let ask ?(profile = Executor.default_profile) o q =
  o.requests <- o.requests + 1;
  price ~profile o.stats (P.plan_of o.db q) None

let requests o = o.requests
