(* The seed executor: interprets the SQL AST directly, with name lookup
   by (alias, column) headers, greedy connected-join ordering at run
   time and a hash join with OR-expansion.  It is the reference the
   engine is differentially tested against (and the "seed" column of
   the bench's pruning experiment): the physical interpreter must return
   the same rows in the same order, with the same probes and emissions,
   and never charge more work.  It charges through the engine's own
   meter ({!Relational.Executor.charge} and friends), so the two work
   figures are comparable unit for unit. *)

open Relational
module X = Executor

let charge = X.charge
let charge_emit_row = X.charge_emit_row

(* A header names each position of an intermediate tuple with (alias,
   column).  The same column name may appear under several aliases. *)
type header = (string * string) array

type rel = { header : header; tuples : Tuple.t list }

let lookup (header : header) (q, c) =
  let n = Array.length header in
  match q with
  | Some a ->
      let rec go i =
        if i >= n then None
        else if fst header.(i) = a && snd header.(i) = c then Some i
        else go (i + 1)
      in
      go 0
  | None ->
      let rec go i found =
        if i >= n then found
        else if snd header.(i) = c then
          match found with
          | None -> go (i + 1) (Some i)
          | Some _ -> raise (Algebra.Ambiguous_column c)
        else go (i + 1) found
      in
      go 0 None

let resolver header e = Expr.resolve (lookup header) e

let scan (ctx : X.ctx) name alias : rel =
  let schema = Database.schema ctx.db name in
  let data = Database.raw_data ctx.db name in
  charge ctx `Scan (Array.length data);
  let header =
    Array.of_list (List.map (fun c -> (alias, c)) (Schema.column_names schema))
  in
  { header; tuples = Array.to_list data }

(* Split a predicate into top-level disjuncts; within each disjunct,
   extract the column equalities usable as hash keys between the left
   and right headers. *)
let rec disjuncts_of = function
  | Expr.Or (a, b) -> disjuncts_of a @ disjuncts_of b
  | e -> [ e ]

let equi_keys lh rh e =
  let pairs =
    List.filter_map
      (fun c ->
        match Expr.as_column_equality c with
        | Some (x, y) -> (
            match (lookup lh x, lookup rh y) with
            | Some i, Some j -> Some (i, j)
            | _ -> (
                match (lookup lh y, lookup rh x) with
                | Some i, Some j -> Some (i, j)
                | _ -> None))
        | None -> None)
      (Expr.conjuncts e)
  in
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

(* Generic hash-based join with OR-expansion.  Each disjunct of the ON
   condition that has column equalities gets a hash table on the right
   input; probing unions candidate row ids, then the full ON predicate
   decides.  Disjuncts without equalities force the whole right side to be
   a candidate (degrading to a nested loop for those). *)
let join ctx kind (left : rel) (right : rel) (on : Expr.t) : rel =
  let header = Array.append left.header right.header in
  let resolved_on = resolver header on in
  let right_arr = Array.of_list right.tuples in
  let nright = Array.length right_arr in
  let plans =
    List.map
      (fun d ->
        let lk, rk = equi_keys left.header right.header d in
        if Array.length lk = 0 then `Full
        else begin
          let tbl = Tuple.Tbl.create (max 16 nright) in
          Array.iteri
            (fun idx row ->
              let k = Tuple.project rk row in
              let prev = try Tuple.Tbl.find tbl k with Not_found -> [] in
              Tuple.Tbl.replace tbl k (idx :: prev))
            right_arr;
          `Hash (lk, tbl)
        end)
      (disjuncts_of on)
  in
  let needs_full =
    List.exists (function `Full -> true | `Hash _ -> false) plans
  in
  let null_pad = Tuple.all_null (Array.length right.header) in
  let out = ref [] in
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun lrow ->
      Hashtbl.reset candidates;
      if needs_full then
        for i = 0 to nright - 1 do
          Hashtbl.replace candidates i ()
        done
      else
        List.iter
          (function
            | `Full -> ()
            | `Hash (lk, tbl) -> (
                let k = Tuple.project lk lrow in
                match Tuple.Tbl.find_opt tbl k with
                | None -> ()
                | Some idxs ->
                    List.iter (fun i -> Hashtbl.replace candidates i ()) idxs))
          plans;
      let matched = ref false in
      (* Iterate in ascending right-row order for deterministic output. *)
      let idxs =
        Hashtbl.fold (fun i () acc -> i :: acc) candidates []
        |> List.sort compare
      in
      charge ctx `Probe (List.length idxs);
      List.iter
        (fun i ->
          let joined = Tuple.concat lrow right_arr.(i) in
          if Expr.eval_pred resolved_on joined then begin
            matched := true;
            charge_emit_row ctx joined;
            out := joined :: !out
          end)
        idxs;
      if (not !matched) && kind = Sql.Left_outer then begin
        let padded = Tuple.concat lrow null_pad in
        charge_emit_row ctx padded;
        out := padded :: !out
      end)
    left.tuples;
  { header; tuples = List.rev !out }

(* Joining the comma list left to right with the WHERE conjuncts that
   become applicable; pick the next table that is connected to the current
   result by an equality conjunct to avoid Cartesian products. *)
let rec eval_table_ref ctx (r : Sql.table_ref) : rel =
  match r with
  | Sql.Table { name; alias } -> scan ctx name alias
  | Sql.Derived { query; alias } ->
      let result = eval_query ctx query in
      let header = Array.map (fun c -> (alias, c)) (Relation.cols result) in
      { header; tuples = Relation.rows result }
  | Sql.Join { left; kind; right; on } ->
      let l = eval_table_ref ctx left in
      let r = eval_table_ref ctx right in
      join ctx kind l r on

and eval_from ctx (from : Sql.table_ref list) (where : Expr.t option) : rel =
  match from with
  | [] ->
      (* dual: single empty row *)
      { header = [||]; tuples = [ [||] ] }
  | first :: rest ->
      let conjs = match where with None -> [] | Some w -> Expr.conjuncts w in
      let applicable header c =
        List.for_all (fun qc -> lookup header qc <> None) (Expr.columns c)
      in
      let apply_filters current pending =
        let now, later =
          List.partition (fun c -> applicable current.header c) pending
        in
        match now with
        | [] -> (current, later)
        | _ ->
            let pred = resolver current.header (Expr.conjoin now) in
            let tuples = List.filter (Expr.eval_pred pred) current.tuples in
            charge ctx `Emit (List.length tuples);
            ({ current with tuples }, later)
      in
      let connected current_header candidate =
        let ch = eval_header_of ctx candidate in
        List.exists
          (fun c ->
            match Expr.as_column_equality c with
            | Some (x, y) ->
                (lookup current_header x <> None && lookup ch y <> None)
                || (lookup current_header y <> None && lookup ch x <> None)
            | None -> false)
          conjs
      in
      let current, pending = apply_filters (eval_table_ref ctx first) conjs in
      let rec go current pending remaining =
        match remaining with
        | [] -> (
            match pending with
            | [] -> current
            | leftover ->
                (* Conjuncts never became applicable: resolution error. *)
                let pred = resolver current.header (Expr.conjoin leftover) in
                let tuples = List.filter (Expr.eval_pred pred) current.tuples in
                (* Late-resolving filters must charge like any other
                   filter (`Emit` per surviving row, as [apply_filters]
                   does), or plans whose predicates resolve late would
                   undercount work versus equivalent plans. *)
                charge ctx `Emit (List.length tuples);
                { current with tuples })
        | _ ->
            let next, rest =
              match
                List.partition (fun r -> connected current.header r) remaining
              with
              | n :: ns, others -> (n, ns @ others)
              | [], r :: rs -> (r, rs)
              | [], [] ->
                  invalid_arg
                    "Legacy: internal error — join ordering ran out of tables \
                     while the FROM list was non-empty"
            in
            let right = eval_table_ref ctx next in
            (* Use the applicable cross-table conjuncts as the join
               condition; leave the rest pending. *)
            let header = Array.append current.header right.header in
            let usable, pending' =
              List.partition (fun c -> applicable header c) pending
            in
            let current = join ctx Sql.Inner current right (Expr.conjoin usable) in
            let current, pending' = apply_filters current pending' in
            go current pending' rest
      in
      go current pending rest

(* Header of a table_ref without evaluating it (used for connectivity). *)
and eval_header_of ctx (r : Sql.table_ref) : header =
  match r with
  | Sql.Table { name; alias } ->
      let schema = Database.schema ctx.db name in
      Array.of_list (List.map (fun c -> (alias, c)) (Schema.column_names schema))
  | Sql.Derived { query; alias } ->
      (* the output columns are the first SELECT branch's aliases *)
      let rec first = function
        | Sql.Select s -> s
        | Sql.Union_all (a, _) -> first a
      in
      Array.of_list
        (List.map (fun i -> (alias, i.Sql.alias)) (first query.Sql.body).Sql.items)
  | Sql.Join { left; right; _ } ->
      Array.append (eval_header_of ctx left) (eval_header_of ctx right)

and eval_select ctx (s : Sql.select) : rel =
  let input = eval_from ctx s.from s.where in
  let items =
    List.map
      (fun (it : Sql.select_item) -> (it.alias, resolver input.header it.expr))
      s.items
  in
  let out_header = Array.of_list (List.map (fun (a, _) -> ("", a)) items) in
  let fns = Array.of_list (List.map (fun (_, r) -> Expr.compile r) items) in
  let tuples =
    List.map
      (fun row ->
        let t = Array.map (fun f -> f row) fns in
        charge_emit_row ctx t;
        t)
      input.tuples
  in
  { header = out_header; tuples }

and eval_body ctx (b : Sql.body) : rel =
  match b with
  | Sql.Select s -> eval_select ctx s
  | Sql.Union_all (a, b) ->
      let ra = eval_body ctx a in
      let rb = eval_body ctx b in
      if Array.length ra.header <> Array.length rb.header then
        invalid_arg "Legacy: UNION ALL branches have different arity";
      { ra with tuples = ra.tuples @ rb.tuples }

(* A full query down to its sorted output relation. *)
and eval_query ctx (q : Sql.query) : Relation.t =
  let result = eval_body ctx q.body in
  let cols = Array.map snd result.header in
  let tuples =
    match q.order_by with
    | [] -> result.tuples
    | keys ->
        let resolved =
          List.map
            (fun (e, d) ->
              let r =
                match e with
                | Expr.Col (_, c) -> (
                    (* ORDER BY over output columns: resolve by name only *)
                    match lookup result.header (None, c) with
                    | Some i -> Expr.resolve (fun _ -> Some i) (Expr.Col (None, c))
                    | None -> resolver result.header e)
                | _ -> resolver result.header e
              in
              (r, d))
            keys
        in
        (* Evaluate each sort key once per row (decorate–sort–undecorate). *)
        let key_fns =
          Array.of_list (List.map (fun (r, _) -> Expr.compile r) resolved)
        in
        let dirs = Array.of_list (List.map snd resolved) in
        let nkeys = Array.length key_fns in
        let cmp (ka, _) (kb, _) =
          let rec go i =
            if i >= nkeys then 0
            else
              let c = Value.compare_total ka.(i) kb.(i) in
              let c = if dirs.(i) = Sql.Desc then -c else c in
              if c <> 0 then c else go (i + 1)
          in
          go 0
        in
        let bytes =
          List.fold_left (fun acc t -> acc + Tuple.wire_size t) 0 result.tuples
        in
        X.charge_sort ctx (List.length result.tuples) bytes;
        let decorated =
          List.map (fun t -> (Array.map (fun f -> f t) key_fns, t)) result.tuples
        in
        List.map snd (List.stable_sort cmp decorated)
  in
  Relation.create cols tuples

let run_with_stats ?(budget = 0) ?(profile = X.default_profile) db
    (q : Sql.query) =
  let ctx = { X.db; st = X.new_stats (); budget; profile } in
  let rel = eval_query ctx q in
  (rel, ctx.X.st)
