(* Physical plans: the executable, priceable form of a query.

   Construction from the logical algebra precomputes everything the
   interpreter used to derive per execution: join algorithm choice and
   per-disjunct hash-key positions (the OR-expansion of disjunctive ON
   conditions), scan projections, and the emission-accounting masks for
   statically-literal output columns. *)

type algo = Hash_join | Nested_loop

type index = {
  left_keys : int array;
  right_keys : int array;
  guard : Expr.resolved option;
}

type disjunct = {
  d_left_keys : int array;
  d_right_keys : int array;
  d_rest : Expr.resolved list;
}

type join_info = {
  kind : Sql.join_kind;
  algo : algo;
  on : Expr.resolved;
  disjuncts : disjunct list;
  indexes : index list;
  split : int;
  right_width : int;
  from_where : bool;
}

type node = { id : int; shape : shape }

and shape =
  | Scan of {
      table : string;
      alias : string;
      cols : int array;
      col_names : string array;
    }
  | Dual
  | Filter of {
      input : node;
      pred : Expr.resolved;
      pushed : bool;
      charged : bool;
    }
  | Project of {
      input : node;
      items : Expr.resolved array;
      names : string array;
      charged : bool array;
    }
  | Join of { left : node; right : node; info : join_info }
  | Union of node list
  | Sort of {
      input : node;
      keys : (Expr.resolved * Sql.dir) list;
    }
  | Derived of { input : node; alias : string }

type plan = {
  root : node;
  cols : string array;
  nodes : int;
}

(* One run's figures, by node id; negative = unknown. *)
type 'a figures = {
  rows : 'a array;
  cost : 'a array;
  spills : int array;
  ns : 'a array;
}

type estimates = float figures
type actuals = int figures

let figures p unknown spills =
  let n = p.nodes + 1 in
  {
    rows = Array.make n unknown;
    cost = Array.make n unknown;
    spills = Array.make n spills;
    ns = Array.make n unknown;
  }

let no_estimates p = figures p (-1.0) (-1)
let no_actuals p = figures p (-1) 0

(* One ON disjunct split into its cross-side column equalities, as
   (left position, right position) pairs — the positional equivalent of
   the interpreter's [equi_keys] name lookup — and the rest. *)
let disjunct_of la d =
  let eqs, d_rest =
    List.partition_map
      (fun c ->
        match c with
        | Expr.R_cmp (Expr.Eq, Expr.R_col i, Expr.R_col j)
          when (i < la && j >= la) || (j < la && i >= la) ->
            if i < la then Either.Left (i, j - la) else Either.Left (j, i - la)
        | c -> Either.Right c)
      (Expr.r_conjuncts d)
  in
  {
    d_left_keys = Array.of_list (List.map fst eqs);
    d_right_keys = Array.of_list (List.map snd eqs);
    d_rest;
  }

(* The hash indexes of a join whose every ON disjunct has an equality:
   one per distinct (left key, right key) position pair, in order of
   first appearance.  An index's guard, over the right row, is the OR
   over the disjuncts it serves of the AND of each one's right-only
   conjuncts (those reading no left column); a disjunct with none leaves
   its index unguarded.  A right row that ON accepts through one of
   these disjuncts passes the guard, so the executor tests ON only on
   the rows that do. *)
let indexes_of la disjuncts =
  let keys d = (d.d_left_keys, d.d_right_keys) in
  let right_only d =
    match
      List.filter
        (fun c -> List.for_all (fun p -> p >= la) (Expr.positions c))
        d.d_rest
    with
    | [] -> None
    | cs -> Some (Expr.r_conjoin cs)
  in
  let or_guard acc g =
    Option.bind acc (fun a -> Option.map (fun g -> Expr.R_or (a, g)) g)
  in
  List.fold_left
    (fun acc d -> if List.mem (keys d) acc then acc else acc @ [ keys d ])
    [] disjuncts
  |> List.map (fun ((left_keys, right_keys) as k) ->
         let guard =
           match List.filter (fun d -> keys d = k) disjuncts |> List.map right_only with
           | g :: gs -> List.fold_left or_guard g gs
           | [] -> None
         in
         {
           left_keys;
           right_keys;
           guard = Option.map (Expr.subst (fun p -> Expr.R_col (p - la))) guard;
         })

let of_algebra (a : Algebra.t) : plan =
  let counter = ref 0 in
  let mk shape =
    incr counter;
    { id = !counter; shape }
  in
  (* [out]: this node feeds the query's output region directly (through
     unions/sorts only), so its literal columns are re-padded for free
     at delivery and skip the byte charge. *)
  let rec build ~out (a : Algebra.t) : node =
    match a with
    | Algebra.Scan { table; alias; cols } ->
        mk
          (Scan
             {
               table;
               alias;
               cols = Array.map fst cols;
               col_names = Array.map snd cols;
             })
    | Algebra.Dual -> mk Dual
    | Algebra.Filter { input; pred; pushed; charged } ->
        mk
          (Filter
             {
               input = build ~out:false input;
               pred;
               pushed;
               charged;
             })
    | Algebra.Project { input; items } ->
        mk
          (Project
             {
               input = build ~out:false input;
               items = Array.map fst items;
               names = Array.map snd items;
               charged =
                 Array.map
                   (fun (e, _) ->
                     (not out)
                     || match e with Expr.R_lit _ -> false | _ -> true)
                   items;
             })
    | Algebra.Join { left; kind; right; on; from_where } ->
        let la = Algebra.width left in
        let right_width = Algebra.width right in
        let disjuncts = List.map (disjunct_of la) (Expr.r_disjuncts on) in
        let algo =
          if List.exists (fun d -> Array.length d.d_left_keys = 0) disjuncts then
            Nested_loop
          else Hash_join
        in
        let indexes = if algo = Hash_join then indexes_of la disjuncts else [] in
        mk
          (Join
             {
               left = build ~out:false left;
               right = build ~out:false right;
               info =
                 {
                   kind;
                   algo;
                   on;
                   disjuncts;
                   indexes;
                   split = la;
                   right_width;
                   from_where;
                 };
             })
    | Algebra.Union_all _ ->
        let rec branches = function
          | Algebra.Union_all (x, y) -> branches x @ branches y
          | n -> [ n ]
        in
        mk (Union (List.map (build ~out) (branches a)))
    | Algebra.Derived { input; alias } ->
        mk (Derived { input = build ~out:false input; alias })
    | Algebra.Sort { input; keys } ->
        mk
          (Sort
             {
               input = build ~out input;
             keys;
             })
  in
  let root = build ~out:true a in
  { root; cols = Array.map snd (Algebra.header a); nodes = !counter }

let plan_of db (q : Sql.query) : plan =
  of_algebra (Algebra.rewrite (Algebra.lower db q))

let algo_name = function
  | Hash_join -> "hash-join"
  | Nested_loop -> "nested-loop"

let op_name n =
  match n.shape with
  | Scan _ -> "scan"
  | Dual -> "dual"
  | Filter _ -> "filter"
  | Project _ -> "project"
  | Join { info; _ } -> algo_name info.algo
  | Union _ -> "union-all"
  | Sort _ -> "sort"
  | Derived _ -> "derived"

let inputs n =
  match n.shape with
  | Scan _ | Dual -> []
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ } | Derived { input; _ } ->
      [ input ]
  | Join { left; right; _ } -> [ left; right ]
  | Union ns -> ns

let rec iter_node f n =
  f n;
  List.iter (iter_node f) (inputs n)

let iter f (p : plan) = iter_node f p.root

(* --- structural keys --------------------------------------------------- *)

(* A subtree with ids, aliases and printed names taken out: every other
   field stays, so two keys are equal exactly when their subtrees read
   the same tables and run the same operators. *)
type key = node

let keys (p : plan) =
  let keys = Array.make (p.nodes + 1) { id = 0; shape = Dual } in
  let rec key n =
    let shape =
      match n.shape with
      | Scan s -> Scan { s with alias = ""; col_names = [||] }
      | Dual -> Dual
      | Filter f -> Filter { f with input = key f.input; pushed = false }
      | Project pr -> Project { pr with input = key pr.input; names = [||] }
      | Join { left; right; info } ->
          let info = { info with from_where = false } in
          Join { left = key left; right = key right; info }
      | Union ns -> Union (List.map key ns)
      | Sort so -> Sort { so with input = key so.input }
      | Derived d -> Derived { input = key d.input; alias = "" }
    in
    keys.(n.id) <- { id = 0; shape };
    keys.(n.id)
  in
  ignore (key p.root);
  keys

(* The (alias, column) of each position of a node's rows, as
   {!Algebra.header} gives them for the tree it was built from: what
   [to_string] names expressions by. *)
let rec header n : Algebra.header =
  match n.shape with
  | Scan { alias; col_names; _ } -> Array.map (fun c -> (alias, c)) col_names
  | Dual | Union [] -> [||]
  | Filter { input; _ } | Sort { input; _ } | Union (input :: _) -> header input
  | Project { names; _ } -> Array.map (fun a -> ("", a)) names
  | Join { left; right; _ } -> Array.append (header left) (header right)
  | Derived { input; alias } ->
      Array.map (fun (_, c) -> (alias, c)) (header input)

(* [index (keys) guard g], over the right input's header [rh]. *)
let index_line rh ix =
  Printf.sprintf "index (%s)%s"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun k -> Algebra.expr_to_string rh (Expr.R_col k))
             ix.right_keys)))
    (match ix.guard with
    | None -> ""
    | Some g -> " guard " ^ Algebra.expr_to_string rh g)

let card_str ~shared (e : estimates) (a : actuals) { id; _ } =
  let est_rows = e.rows.(id) and act_rows = a.rows.(id) in
  let est_cost = e.cost.(id) and act_cost = a.cost.(id) in
  let est_ns = e.ns.(id) and act_ns = a.ns.(id) in
  let est = if est_rows < 0.0 then "?" else Printf.sprintf "%.0f" est_rows in
  let act = if act_rows < 0 then "?" else string_of_int act_rows in
  let cost =
    match (est_cost < 0.0, act_cost < 0) with
    | true, true -> ""
    | e, a ->
        Printf.sprintf " cost=%s/%s"
          (if e then "?" else Printf.sprintf "%.0f" est_cost)
          (if a then "?" else string_of_int act_cost)
  in
  let ms =
    match (est_ns < 0.0, act_ns < 0) with
    | true, true -> ""
    | e, a ->
        Printf.sprintf " ms=%s/%s"
          (if e then "?" else Printf.sprintf "%.3f" (est_ns /. 1e6))
          (if a then "?" else Printf.sprintf "%.3f" (float_of_int act_ns /. 1e6))
  in
  let shared =
    match shared id with None -> "" | Some from -> " shared from " ^ from
  in
  Printf.sprintf "  (rows est=%s act=%s%s%s%s)" est act cost ms shared

let to_string ?(shared = fun _ -> None) (p : plan) (e : estimates)
    (a : actuals) : string =
  let b = Buffer.create 512 in
  let line ind s n =
    Buffer.add_string b (String.make (ind * 2) ' ');
    Buffer.add_string b s;
    Buffer.add_string b (card_str ~shared e a n);
    Buffer.add_char b '\n'
  in
  let rec go ind n =
    (match n.shape with
    | Scan { table; alias; cols; _ } ->
        line ind
          (Printf.sprintf "scan %s as %s [%d cols]" table alias
             (Array.length cols))
          n
    | Dual -> line ind "dual" n
    | Filter { input; pred; pushed; charged } ->
        line ind
          (Printf.sprintf "filter%s%s %s"
             (if pushed then "[pushdown]" else "")
             (if charged then "" else "[uncharged]")
             (Algebra.expr_to_string (header input) pred))
          n
    | Project { items; charged; _ } ->
        let ncharged =
          Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 charged
        in
        line ind
          (Printf.sprintf "project [%d cols, %d charged]" (Array.length items)
             ncharged)
          n
    | Join { left; right; info } ->
        line ind
          (Printf.sprintf "%s %s%s on %s" (algo_name info.algo)
             (match info.kind with
             | Sql.Inner -> "inner"
             | Sql.Left_outer -> "left-outer")
             (if info.from_where then " [pushdown<-where]" else "")
             (Algebra.expr_to_string
                (Array.append (header left) (header right))
                info.on))
          n
    | Union ns -> line ind (Printf.sprintf "union-all [%d branches]" (List.length ns)) n
    | Sort { input; keys } ->
        let est_spills = e.spills.(n.id) and act_spills = a.spills.(n.id) in
        let spill =
          if est_spills > 0 || act_spills > 0 then
            Printf.sprintf " spills est=%s act=%d"
              (if est_spills < 0 then "?" else string_of_int est_spills)
              act_spills
          else ""
        in
        line ind
          (Printf.sprintf "sort [%s]%s"
             (Algebra.keys_to_string (header input) keys)
             spill)
          n
    | Derived { alias; _ } -> line ind (Printf.sprintf "derived %s" alias) n);
    match n.shape with
    | Scan _ | Dual -> ()
    | Filter { input; _ }
    | Project { input; _ }
    | Sort { input; _ }
    | Derived { input; _ } ->
        go (ind + 1) input
    | Join { left; right; info } ->
        let rh = header right in
        List.iter
          (fun ix ->
            Buffer.add_string b (String.make ((ind + 1) * 2) ' ');
            Buffer.add_string b (index_line rh ix);
            Buffer.add_char b '\n')
          info.indexes;
        go (ind + 1) left;
        go (ind + 1) right
    | Union ns -> List.iter (go (ind + 1)) ns
  in
  go 0 p.root;
  Buffer.contents b

(* Flatten a plan and one run's figures into the generic samples the
   lib/obs anomaly detector consumes — obs cannot see this module, so
   the adapter lives on this side of the dependency edge. *)
let diagnose_samples ?(shared = fun _ -> None) ~stream (p : plan)
    (e : estimates) (a : actuals) : Obs.Diagnose.sample list =
  let acc = ref [] in
  iter
    (fun n ->
      acc :=
        {
          Obs.Diagnose.d_stream = stream;
          d_node = n.id;
          d_op = op_name n;
          d_est_rows = e.rows.(n.id);
          d_act_rows = a.rows.(n.id);
          d_est_cost = e.cost.(n.id);
          d_act_cost = a.cost.(n.id);
          d_est_ms = (if e.ns.(n.id) < 0.0 then -1.0 else e.ns.(n.id) /. 1e6);
          d_act_ms = (if a.ns.(n.id) < 0 then -1.0 else float_of_int a.ns.(n.id) /. 1e6);
          d_spills = a.spills.(n.id);
          d_leaf = (match n.shape with Scan _ | Dual -> true | _ -> false);
          d_shared = Option.value ~default:"" (shared n.id);
        }
        :: !acc)
    p;
  List.rev !acc
