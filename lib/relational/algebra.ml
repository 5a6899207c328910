(* Typed logical relational algebra: lowering from the SQL AST and the
   rewrite pipeline (pushdown, constant folding, projection pruning).

   The lowering is a structural mirror of the seed interpreter: the same
   greedy connected-join ordering, the same eager WHERE-conjunct
   placement, the same name-resolution rules (including ORDER BY
   resolving output columns by name only).  That makes the rewrite
   invariant checkable: any plan this module produces must yield
   byte-identical rows in the same order, with work charges never above
   the interpreter's. *)

exception Ambiguous_column of string

type header = (string * string) array

type t =
  | Scan of { table : string; alias : string; cols : (int * string) array }
  | Dual
  | Filter of { input : t; pred : Expr.resolved; pushed : bool; charged : bool }
  | Project of { input : t; items : (Expr.resolved * string) array }
  | Join of {
      left : t;
      kind : Sql.join_kind;
      right : t;
      on : Expr.resolved;
      from_where : bool;
    }
  | Union_all of t * t
  | Derived of { input : t; alias : string }
  | Sort of { input : t; keys : (Expr.resolved * Sql.dir) list }

(* --- inspection ------------------------------------------------------- *)

let rec header = function
  | Scan { alias; cols; _ } -> Array.map (fun (_, c) -> (alias, c)) cols
  | Dual -> [||]
  | Filter { input; _ } -> header input
  | Project { items; _ } -> Array.map (fun (_, a) -> ("", a)) items
  | Join { left; right; _ } -> Array.append (header left) (header right)
  | Union_all (a, _) -> header a
  | Derived { input; alias } ->
      Array.map (fun (_, c) -> (alias, c)) (header input)
  | Sort { input; _ } -> header input

let width n = Array.length (header n)

(* Position [i] of [h] as a column reference, for printing. *)
let name (h : header) i =
  match h.(i) with "", c -> (None, c) | a, c -> (Some a, c)

let expr_to_string h e = Expr.to_sql (Expr.unresolve (name h) e)

(* --- name resolution --------------------------------------------------- *)

(* Identical rules to the interpreter's [lookup]: qualified references
   need an exact (alias, column) match; unqualified references match by
   column name and raise on the second hit. *)
let lookup (h : header) (q, c) =
  let n = Array.length h in
  match q with
  | Some a ->
      let rec go i =
        if i >= n then None
        else if fst h.(i) = a && snd h.(i) = c then Some i
        else go (i + 1)
      in
      go 0
  | None ->
      let rec go i found =
        if i >= n then found
        else if snd h.(i) = c then
          match found with
          | None -> go (i + 1) (Some i)
          | Some _ -> raise (Ambiguous_column c)
        else go (i + 1) found
      in
      go 0 None

let resolve_in h e = Expr.resolve (lookup h) e

(* --- lowering ---------------------------------------------------------- *)

let scan_of db name alias =
  let schema = Database.schema db name in
  let cols =
    Array.of_list (List.mapi (fun i c -> (i, c)) (Schema.column_names schema))
  in
  Scan { table = name; alias; cols }

let rec lower_table_ref db (r : Sql.table_ref) : t =
  match r with
  | Sql.Table { name; alias } -> scan_of db name alias
  | Sql.Derived { query; alias } ->
      Derived { input = lower_query db query; alias }
  | Sql.Join { left; kind; right; on } ->
      let l = lower_table_ref db left in
      let r = lower_table_ref db right in
      let h = Array.append (header l) (header r) in
      Join { left = l; kind; right = r; on = resolve_in h on; from_where = false }

(* Greedy connected ordering of the comma FROM list, with WHERE conjuncts
   applied as soon as their columns are in scope — structurally identical
   to the interpreter's [eval_from]. *)
and lower_from db (from : Sql.table_ref list) (where : Expr.t option) : t =
  match from with
  | [] -> Dual (* the interpreter ignores WHERE on the dual row *)
  | first :: rest ->
      let first = lower_table_ref db first in
      let rest = List.map (lower_table_ref db) rest in
      let conjs = match where with None -> [] | Some w -> Expr.conjuncts w in
      let applicable h c =
        List.for_all (fun qc -> lookup h qc <> None) (Expr.columns c)
      in
      (* [below]: joins still follow, so this filter runs earlier than a
         naive filter-after-product plan would run it. *)
      let apply_filters ~below current pending =
        let h = header current in
        let now, later = List.partition (fun c -> applicable h c) pending in
        match now with
        | [] -> (current, later)
        | _ ->
            ( Filter
                {
                  input = current;
                  pred = resolve_in h (Expr.conjoin now);
                  pushed = below;
                  charged = true;
                },
              later )
      in
      let connected h candidate =
        let ch = header candidate in
        List.exists
          (fun c ->
            match Expr.as_column_equality c with
            | Some (x, y) ->
                (lookup h x <> None && lookup ch y <> None)
                || (lookup h y <> None && lookup ch x <> None)
            | None -> false)
          conjs
      in
      let current, pending =
        apply_filters ~below:(rest <> []) first conjs
      in
      let rec go current pending remaining =
        match remaining with
        | [] -> (
            match pending with
            | [] -> current
            | leftover ->
                let h = header current in
                Filter
                  {
                    input = current;
                    pred = resolve_in h (Expr.conjoin leftover);
                    pushed = false;
                    charged = true;
                  })
        | _ ->
            let right, rest =
              match
                List.partition (fun r -> connected (header current) r) remaining
              with
              | n :: ns, others -> (n, ns @ others)
              | [], r :: rs -> (r, rs)
              | [], [] ->
                  (* partitioning the non-empty [remaining] cannot yield
                     two empty halves; reachable only via a broken
                     List.partition *)
                  invalid_arg
                    (Printf.sprintf
                       "Algebra.lower_from: FROM-list join ordering lost its \
                        %d remaining relation(s)"
                       (List.length remaining))
            in
            let h = Array.append (header current) (header right) in
            let usable, pending' =
              List.partition (fun c -> applicable h c) pending
            in
            let current =
              Join
                {
                  left = current;
                  kind = Sql.Inner;
                  right;
                  on = resolve_in h (Expr.conjoin usable);
                  from_where = true;
                }
            in
            let current, pending' =
              apply_filters ~below:(rest <> []) current pending'
            in
            go current pending' rest
      in
      go current pending rest

and lower_select db (s : Sql.select) : t =
  let input = lower_from db s.from s.where in
  let h = header input in
  let items =
    Array.of_list
      (List.map
         (fun (it : Sql.select_item) -> (resolve_in h it.expr, it.alias))
         s.items)
  in
  Project { input; items }

and lower_body db (b : Sql.body) : t =
  match b with
  | Sql.Select s -> lower_select db s
  | Sql.Union_all (a, b) ->
      let la = lower_body db a in
      let lb = lower_body db b in
      if width la <> width lb then
        invalid_arg "Executor: UNION ALL branches have different arity";
      Union_all (la, lb)

and lower_query db (q : Sql.query) : t =
  let body = lower_body db q.body in
  match q.order_by with
  | [] -> body
  | keys ->
      let h = header body in
      let keys =
        List.map
          (fun (e, d) ->
            let r =
              match e with
              | Expr.Col (_, c) -> (
                  (* ORDER BY over output columns resolves by name only *)
                  match lookup h (None, c) with
                  | Some i -> Expr.R_col i
                  | None -> resolve_in h e)
              | _ -> resolve_in h e
            in
            (r, d))
          keys
      in
      Sort { input = body; keys }

let lower = lower_query

(* --- constant folding --------------------------------------------------- *)

(* Mirrors [Expr.eval]'s three-valued logic exactly; only rewrites where
   the evaluation result is fully determined. *)
let rec fold_expr (e : Expr.resolved) : Expr.resolved =
  match e with
  | Expr.R_col _ | Expr.R_lit _ -> e
  | Expr.R_cmp (op, a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.R_lit x, Expr.R_lit y -> (
          match Value.compare3 x y with
          | None -> Expr.R_lit Value.Null
          | Some c -> Expr.R_lit (Value.Bool (Expr.apply_cmp op c)))
      | a, b -> Expr.R_cmp (op, a, b))
  | Expr.R_arith (op, a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.R_lit x, Expr.R_lit y -> Expr.R_lit (Expr.apply_arith op x y)
      | a, b -> Expr.R_arith (op, a, b))
  | Expr.R_and (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.R_lit (Value.Bool false), _ | _, Expr.R_lit (Value.Bool false) ->
          Expr.R_lit (Value.Bool false)
      | Expr.R_lit (Value.Bool true), Expr.R_lit v | Expr.R_lit v, Expr.R_lit (Value.Bool true) ->
          (match v with Value.Bool _ -> Expr.R_lit v | _ -> Expr.R_lit Value.Null)
      | Expr.R_lit (Value.Bool true), x | x, Expr.R_lit (Value.Bool true) -> x
      | a, b -> Expr.R_and (a, b))
  | Expr.R_or (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Expr.R_lit (Value.Bool true), _ | _, Expr.R_lit (Value.Bool true) ->
          Expr.R_lit (Value.Bool true)
      | Expr.R_lit (Value.Bool false), Expr.R_lit v | Expr.R_lit v, Expr.R_lit (Value.Bool false) ->
          (match v with Value.Bool _ -> Expr.R_lit v | _ -> Expr.R_lit Value.Null)
      | Expr.R_lit (Value.Bool false), x | x, Expr.R_lit (Value.Bool false) -> x
      | a, b -> Expr.R_or (a, b))
  | Expr.R_not e -> (
      match fold_expr e with
      | Expr.R_lit (Value.Bool b) -> Expr.R_lit (Value.Bool (not b))
      | Expr.R_lit _ -> Expr.R_lit Value.Null
      | x -> Expr.R_not x)
  | Expr.R_is_null e -> (
      match fold_expr e with
      | Expr.R_lit v -> Expr.R_lit (Value.Bool (Value.is_null v))
      | x -> Expr.R_is_null x)
  | Expr.R_is_not_null e -> (
      match fold_expr e with
      | Expr.R_lit v -> Expr.R_lit (Value.Bool (not (Value.is_null v)))
      | x -> Expr.R_is_not_null x)

let remap f = Expr.subst (fun i -> Expr.R_col (f i))

(* --- predicate pushdown ------------------------------------------------- *)

(* Rewrite a predicate over a projection's output into one over its
   input by inlining the item expressions. *)
let subst_items (items : (Expr.resolved * string) array) =
  Expr.subst (fun i -> fst items.(i))

(* Sink [pred] below the nearest charging projection(s) of [n].  Only
   that placement is guaranteed to never increase work: the projection
   then emits (and pays for) fewer rows, while the new filter charges at
   most what the predicate's original charge point did.  [charged]
   distinguishes WHERE-origin predicates (which paid per survivor at
   their original position) from ON-origin ones (which the interpreter
   evaluated for free during probing, so the relocated filter must stay
   free). *)
let rec try_sink ~charged (pred : Expr.resolved) (n : t) : t option =
  match n with
  | Derived { input; alias } ->
      Option.map
        (fun input -> Derived { input; alias })
        (try_sink ~charged pred input)
  | Sort { input; keys } ->
      (* filtering a subset before a stable sort sorts the same subset *)
      Option.map
        (fun input -> Sort { input; keys })
        (try_sink ~charged pred input)
  | Union_all (a, b) -> (
      match (try_sink ~charged pred a, try_sink ~charged pred b) with
      | Some a, Some b -> Some (Union_all (a, b))
      | _ -> None)
  | Project { input; items } -> (
      match fold_expr (subst_items items pred) with
      | Expr.R_lit (Value.Bool true) -> Some n
      | pred' ->
          Some
            (Project
               {
                 input = Filter { input; pred = pred'; pushed = true; charged };
                 items;
               }))
  | Scan _ | Dual | Filter _ | Join _ -> None

let rec push (n : t) : t =
  match n with
  | Scan _ | Dual -> n
  | Filter { input; pred; pushed; charged } -> (
      let input = push input in
      if charged then
        (* A charged filter must move as a unit: sinking only part of it
           would add a charge point while the residual filter still pays
           per survivor, which can exceed the naive plan's work. *)
        match try_sink ~charged:true pred input with
        | Some input -> input
        | None -> Filter { input; pred; pushed; charged }
      else
        let input, kept =
          List.fold_left
            (fun (input, kept) c ->
              match try_sink ~charged:false c input with
              | Some input -> (input, kept)
              | None -> (input, c :: kept))
            (input, []) (Expr.r_conjuncts pred)
        in
        match List.rev kept with
        | [] -> input
        | ks -> Filter { input; pred = Expr.r_conjoin ks; pushed; charged })
  | Project { input; items } -> Project { input = push input; items }
  | Join { left; kind; right; on; from_where } -> (
      let left = push left and right = push right in
      (* Conjuncts of a single-disjunct ON that touch only one input can
         sink into that input (right side always; left side only for
         inner joins — an outer join keeps left rows that fail the ON).
         The hash keys are cross-side equalities, so they are never
         candidates and the join algorithm cannot change. *)
      match Expr.r_disjuncts on with
      | [ _ ] ->
          let la = width left in
          let step (left, right, kept) c =
            let ps = Expr.positions c in
            let all_left = ps <> [] && List.for_all (fun p -> p < la) ps in
            let all_right = ps <> [] && List.for_all (fun p -> p >= la) ps in
            if all_left && kind = Sql.Inner then
              match try_sink ~charged:false c left with
              | Some left -> (left, right, kept)
              | None -> (left, right, c :: kept)
            else if all_right then
              let c' = remap (fun p -> p - la) c in
              match try_sink ~charged:false c' right with
              | Some right -> (left, right, kept)
              | None -> (left, right, c :: kept)
            else (left, right, c :: kept)
          in
          let left, right, kept =
            List.fold_left step (left, right, []) (Expr.r_conjuncts on)
          in
          Join
            { left; kind; right; on = Expr.r_conjoin (List.rev kept); from_where }
      | _ -> Join { left; kind; right; on; from_where })
  | Union_all (a, b) -> Union_all (push a, push b)
  | Derived { input; alias } -> Derived { input = push input; alias }
  | Sort { input; keys } -> Sort { input = push input; keys }

(* --- constant propagation ----------------------------------------------- *)

(* Per-position constant values of a node's output, where provable.
   Left-outer right sides are never constant (NULL padding), and union
   positions only when every branch agrees. *)
let rec consts (n : t) : Value.t option array =
  match n with
  | Scan { cols; _ } -> Array.make (Array.length cols) None
  | Dual -> [||]
  | Filter { input; _ } | Sort { input; _ } | Derived { input; _ } ->
      consts input
  | Project { input; items } ->
      let ic = consts input in
      Array.map
        (fun (e, _) ->
          match e with
          | Expr.R_lit v -> Some v
          | Expr.R_col i -> ic.(i)
          | _ -> None)
        items
  | Join { left; kind; right; _ } ->
      let lc = consts left in
      let rc =
        match kind with
        | Sql.Inner -> consts right
        | Sql.Left_outer -> Array.make (width right) None
      in
      Array.append lc rc
  | Union_all (a, b) ->
      let ca = consts a and cb = consts b in
      Array.map2
        (fun x y ->
          match (x, y) with
          | Some v, Some w when Value.equal v w -> Some v
          | _ -> None)
        ca cb

let subst_consts (ic : Value.t option array) =
  Expr.subst (fun i ->
      match ic.(i) with Some v -> Expr.R_lit v | None -> Expr.R_col i)

(* Replace provably-constant column references in projection items and
   filter predicates with their literal values.  Join ON conditions are
   left untouched: rewriting them could erase the column equalities the
   physical layer derives hash keys from, degrading hash joins to
   nested loops.  Literal items are what the narrow-emission accounting
   (and the paper's fig. 13 null-padding argument) keys off. *)
let rec propagate (n : t) : t =
  match n with
  | Scan _ | Dual -> n
  | Filter { input; pred; pushed; charged } ->
      let input = propagate input in
      let ic = consts input in
      Filter { input; pred = fold_expr (subst_consts ic pred); pushed; charged }
  | Project { input; items } ->
      let input = propagate input in
      let ic = consts input in
      Project
        {
          input;
          items =
            Array.map (fun (e, a) -> (fold_expr (subst_consts ic e), a)) items;
        }
  | Join { left; kind; right; on; from_where } ->
      Join { left = propagate left; kind; right = propagate right; on; from_where }
  | Union_all (a, b) -> Union_all (propagate a, propagate b)
  | Derived { input; alias } -> Derived { input = propagate input; alias }
  | Sort { input; keys } -> Sort { input = propagate input; keys }

(* Drop filters whose predicate folded to TRUE (they keep every row and
   would only add charges). *)
let rec cleanup (n : t) : t =
  match n with
  | Scan _ | Dual -> n
  | Filter { pred = Expr.R_lit (Value.Bool true); input; _ } -> cleanup input
  | Filter { input; pred; pushed; charged } ->
      Filter { input = cleanup input; pred; pushed; charged }
  | Project { input; items } -> Project { input = cleanup input; items }
  | Join { left; kind; right; on; from_where } ->
      Join { left = cleanup left; kind; right = cleanup right; on; from_where }
  | Union_all (a, b) -> Union_all (cleanup a, cleanup b)
  | Derived { input; alias } -> Derived { input = cleanup input; alias }
  | Sort { input; keys } -> Sort { input = cleanup input; keys }

(* --- projection pruning ------------------------------------------------- *)

module ISet = Set.Make (Int)

let positions_set e = ISet.of_list (Expr.positions e)

(* Restrict a node of width [w] to the output positions in [keep];
   returns the sorted kept indices and the old→new map (-1 = dropped). *)
let mapping_of w keep =
  let map = Array.make w (-1) in
  let kept = ISet.elements (ISet.filter (fun i -> i >= 0 && i < w) keep) in
  List.iteri (fun rank i -> map.(i) <- rank) kept;
  (Array.of_list kept, map)

(* Rewrite [n] to produce only the output positions in [keep]; returns
   the pruned node and the old→new position map.  Work can only shrink:
   scans charge per stored row regardless of width, and emission/sort
   charges are width-sensitive. *)
let rec prune (n : t) (keep : ISet.t) : t * int array =
  match n with
  | Dual -> (Dual, [||])
  | Scan { table; alias; cols } ->
      let kept, map = mapping_of (Array.length cols) keep in
      (Scan { table; alias; cols = Array.map (fun i -> cols.(i)) kept }, map)
  | Filter { input; pred; pushed; charged } ->
      let need = ISet.union keep (positions_set pred) in
      let input, map = prune input need in
      ( Filter
          { input; pred = remap (fun i -> map.(i)) pred; pushed; charged },
        map )
  | Sort { input; keys } ->
      let need =
        List.fold_left (fun acc (e, _) -> ISet.union acc (positions_set e)) keep
          keys
      in
      let input, map = prune input need in
      ( Sort
          {
            input;
            keys = List.map (fun (e, d) -> (remap (fun i -> map.(i)) e, d)) keys;
          },
        map )
  | Project { input; items } ->
      let kept, map = mapping_of (Array.length items) keep in
      let items = Array.map (fun i -> items.(i)) kept in
      let need =
        Array.fold_left
          (fun acc (e, _) -> ISet.union acc (positions_set e))
          ISet.empty items
      in
      let input, imap = prune input need in
      ( Project
          {
            input;
            items =
              Array.map (fun (e, a) -> (remap (fun i -> imap.(i)) e, a)) items;
          },
        map )
  | Union_all (a, b) ->
      (* both branches have equal width and get the same keep set, so
         their position maps coincide *)
      let a, ma = prune a keep in
      let b, _ = prune b keep in
      (Union_all (a, b), ma)
  | Join { left; kind; right; on; from_where } ->
      let la = width left in
      let need = ISet.union keep (positions_set on) in
      let lneed = ISet.filter (fun i -> i < la) need in
      let rneed =
        ISet.fold
          (fun i acc -> if i >= la then ISet.add (i - la) acc else acc)
          need ISet.empty
      in
      let left, lmap = prune left lneed in
      let right, rmap = prune right rneed in
      let la' = width left in
      let map =
        Array.init
          (la + Array.length rmap)
          (fun i ->
            if i < la then lmap.(i)
            else match rmap.(i - la) with -1 -> -1 | j -> la' + j)
      in
      ( Join
          { left; kind; right; on = remap (fun i -> map.(i)) on; from_where },
        map )
  | Derived { input; alias } ->
      let input, map = prune input keep in
      (Derived { input; alias }, map)

let prune_root n =
  let all = ISet.of_list (List.init (width n) (fun i -> i)) in
  fst (prune n all)

let rewrite n = prune_root (cleanup (propagate (push n)))

(* --- printing ----------------------------------------------------------- *)

let item_to_string h (e, a) =
  match e with
  | Expr.R_col i when snd h.(i) = a -> a
  | _ -> a ^ ":=" ^ expr_to_string h e

let keys_to_string h keys =
  String.concat ", "
    (List.map
       (fun (e, d) ->
         expr_to_string h e
         ^ match d with Sql.Asc -> " asc" | Sql.Desc -> " desc")
       keys)

let to_string (n : t) : string =
  let b = Buffer.create 512 in
  let line ind s =
    Buffer.add_string b (String.make (ind * 2) ' ');
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let rec go ind = function
    | Scan { table; alias; cols } ->
        line ind
          (Printf.sprintf "scan %s as %s [%s]" table alias
             (String.concat ", " (Array.to_list (Array.map snd cols))))
    | Dual -> line ind "dual"
    | Filter { input; pred; pushed; charged } ->
        line ind
          (Printf.sprintf "filter%s%s %s"
             (if pushed then "[pushdown]" else "")
             (if charged then "" else "[uncharged]")
             (expr_to_string (header input) pred));
        go (ind + 1) input
    | Project { input; items } ->
        line ind
          (Printf.sprintf "project [%s]"
             (String.concat ", " (Array.to_list (Array.map (item_to_string (header input)) items))));
        go (ind + 1) input
    | Join { left; kind; right; on; from_where } ->
        line ind
          (Printf.sprintf "join %s%s on %s"
             (match kind with Sql.Inner -> "inner" | Sql.Left_outer -> "left-outer")
             (if from_where then " [pushdown<-where]" else "")
             (expr_to_string (Array.append (header left) (header right)) on));
        go (ind + 1) left;
        go (ind + 1) right
    | Union_all (a, b) ->
        line ind "union-all";
        go (ind + 1) a;
        go (ind + 1) b
    | Derived { input; alias } ->
        line ind (Printf.sprintf "derived %s" alias);
        go (ind + 1) input
    | Sort { input; keys } ->
        line ind
          (Printf.sprintf "sort [%s]" (keys_to_string (header input) keys));
        go (ind + 1) input
  in
  go 0 n;
  Buffer.contents b
