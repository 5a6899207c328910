(* SQL generation (paper Sec. 3.4).

   Each partition fragment becomes one SQL query producing one sorted
   tuple stream.  Two strategies:

   - Outer-join plans (SilkRoute's default): the fragment root's body is
     left-outer-joined with the UNION ALL of its child branches; sibling
     branches are distinguished by their L (Skolem-function-index) column
     and NULL-pad each other's variables.  Recursively down the fragment.

   - Outer-union plans (Shanmugasundaram et al., used as the paper's
     comparison point): one SELECT per node group computing the node's
     full rule, NULL-padded to the common width, all UNION ALLed; no
     outer joins.

   Every stream is sorted by the restriction of the view tree's global
   sort-attribute sequence, so the tagger can merge streams in one pass.

   With reduction enabled, generation operates on the fragment's reduced
   groups (Reduce): a group's members share one body, so 1-labeled kept
   edges produce no branch at all — the paper's "outer join … disappears
   when all children are labeled 1". *)

module R = Relational
module D = Datalog
module Sql = Relational.Sql

type col_kind = Level_col of int | Var_col of string

type style = Outer_join | Outer_union

type options = {
  style : style;
  labels : Xmlkit.Dtd.multiplicity array option; (* Some = apply reduction *)
}

let default_options = { style = Outer_join; labels = None }

type stream = {
  fragment : Partition.fragment;
  groups : Reduce.group list;
  query : Sql.query;
  cols : col_kind array;
}

let unsupported fmt =
  Format.kasprintf (fun m -> raise (View_tree.Unsupported m)) fmt

(* --- group bodies ------------------------------------------------------ *)

(* The FROM/WHERE material of a group: (alias, atom) pairs plus filters.
   [full] uses the group root's complete rule (for fragment roots and for
   outer-union branches); otherwise the root contributes only its delta.
   An empty body (pure re-grouping nodes) falls back to the full rule —
   the redundant re-query that view-tree reduction exists to remove. *)
type body = {
  batoms : (string * D.Rule.atom) list; (* (alias, atom) *)
  bfilters : D.Rule.filter list;
}

let group_body tree (g : Reduce.group) ~full : body =
  let root = View_tree.node tree g.Reduce.g_root in
  let root_atoms =
    if full then List.combine (List.map fst root.View_tree.scope)
                   root.View_tree.rule.D.Rule.atoms
    else List.combine (List.map fst root.View_tree.delta_scope)
           root.View_tree.delta_atoms
  in
  let root_filters =
    if full then root.View_tree.rule.D.Rule.filters
    else root.View_tree.delta_filters
  in
  let others = List.filter (fun m -> m <> g.Reduce.g_root) g.Reduce.g_members in
  let atoms, filters =
    List.fold_left
      (fun (atoms, filters) m ->
        let n = View_tree.node tree m in
        let extra =
          List.combine
            (List.map fst n.View_tree.delta_scope)
            n.View_tree.delta_atoms
          |> List.filter (fun (a, _) -> not (List.mem_assoc a atoms))
        in
        let extra_f =
          List.filter (fun f -> not (List.mem f filters)) n.View_tree.delta_filters
        in
        (atoms @ extra, filters @ extra_f))
      (root_atoms, root_filters) others
  in
  if atoms = [] then
    (* empty delta: re-query the full rule *)
    {
      batoms =
        List.combine (List.map fst root.View_tree.scope)
          root.View_tree.rule.D.Rule.atoms;
      bfilters = root.View_tree.rule.D.Rule.filters;
    }
  else { batoms = atoms; bfilters = filters }

(* Variables and their (alias, column) source positions in a body. *)
let var_positions db (b : body) : (string * (string * string) list) list =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (alias, (atom : D.Rule.atom)) ->
      let cols = R.Schema.column_names (R.Database.schema db atom.D.Rule.rel) in
      List.iter2
        (fun col arg ->
          match arg with
          | D.Rule.Var v ->
              if not (Hashtbl.mem tbl v) then order := v :: !order;
              let cur = try Hashtbl.find tbl v with Not_found -> [] in
              Hashtbl.replace tbl v (cur @ [ (alias, col) ])
          | D.Rule.Const _ | D.Rule.Wild -> ())
        cols atom.D.Rule.args)
    b.batoms;
  List.rev_map (fun v -> (v, Hashtbl.find tbl v)) !order

let body_vars db b = List.map fst (var_positions db b)

(* Whether [v] may be NULL in [b]'s rows: the column its value is read
   from (its first source position) is declared nullable.  A correlation
   on such a variable must match NULL with NULL, or the outer join loses
   the children of every row whose value is NULL. *)
let nullable_var db (b : body) positions v =
  match List.assoc_opt v positions with
  | Some ((alias, col) :: _) -> (
      let rel = (List.assoc alias b.batoms).D.Rule.rel in
      match R.Schema.find_column (R.Database.schema db rel) col with
      | Some c -> c.R.Schema.nullable
      | None -> false)
  | _ -> false

(* WHERE conjuncts of a body: variable co-occurrence equalities, filters,
   and constant equalities for Const args. *)
let body_where db (b : body) : R.Expr.t option =
  let positions = var_positions db b in
  let src v =
    match List.assoc_opt v positions with
    | Some ((a, c) :: _) -> R.Expr.Col (Some a, c)
    | _ -> unsupported "filter references variable %s not bound in this body" v
  in
  let co_occur =
    List.concat_map
      (fun (_, ps) ->
        match ps with
        | [] | [ _ ] -> []
        | (a0, c0) :: rest ->
            List.map
              (fun (a, c) ->
                R.Expr.Cmp (R.Expr.Eq, R.Expr.Col (Some a0, c0), R.Expr.Col (Some a, c)))
              rest)
      positions
  in
  let consts =
    List.concat_map
      (fun (alias, (atom : D.Rule.atom)) ->
        let cols = R.Schema.column_names (R.Database.schema db atom.D.Rule.rel) in
        List.filteri (fun _ _ -> true) (List.map2 (fun c a -> (c, a)) cols atom.D.Rule.args)
        |> List.filter_map (fun (col, arg) ->
               match arg with
               | D.Rule.Const v ->
                   Some (R.Expr.Cmp (R.Expr.Eq, R.Expr.Col (Some alias, col), R.Expr.Lit v))
               | _ -> None))
      b.batoms
  in
  let term = function
    | D.Rule.Var v -> src v
    | D.Rule.Const c -> R.Expr.Lit c
    | D.Rule.Wild -> unsupported "wildcard in filter"
  in
  let filters =
    List.map
      (fun (f : D.Rule.filter) ->
        R.Expr.Cmp (f.D.Rule.op, term f.D.Rule.left, term f.D.Rule.right))
      b.bfilters
  in
  match co_occur @ consts @ filters with
  | [] -> None
  | conjs -> Some (R.Expr.conjoin conjs)

(* --- fragment column layout ------------------------------------------- *)

type layout = {
  cols : col_kind array;
  max_level : int;
}

let layout_of db tree groups (f : Partition.fragment) : layout =
  let max_level =
    List.fold_left
      (fun m id -> max m (View_tree.level (View_tree.node tree id)))
      0 f.Partition.members
  in
  let head_vars =
    List.concat_map
      (fun id -> (View_tree.node tree id).View_tree.rule.D.Rule.head_vars)
      f.Partition.members
  in
  (* correlation vars between parent/child groups *)
  let corr_vars =
    List.concat_map
      (fun (g : Reduce.group) ->
        let gv = body_vars db (group_body tree g ~full:true) in
        List.concat_map
          (fun (cg : Reduce.group) ->
            let cv = body_vars db (group_body tree cg ~full:false) in
            List.filter (fun v -> List.mem v cv) gv)
          (Reduce.child_groups tree groups g))
      groups
  in
  let vars =
    List.fold_left
      (fun acc v -> if List.mem v acc then acc else v :: acc)
      [] (head_vars @ corr_vars)
    |> List.rev
  in
  let attrs = View_tree.sort_attrs tree in
  let from_attrs =
    List.filter_map
      (function
        | View_tree.Level p when p <= max_level -> Some (Level_col p)
        | View_tree.Level _ -> None
        | View_tree.Variable v when List.mem v vars -> Some (Var_col v)
        | View_tree.Variable _ -> None)
      attrs
  in
  let covered =
    List.filter_map (function Var_col v -> Some v | Level_col _ -> None) from_attrs
  in
  let extra = List.filter (fun v -> not (List.mem v covered)) vars in
  { cols = Array.of_list (from_attrs @ List.map (fun v -> Var_col v) extra);
    max_level }

let col_name = function
  | Level_col j -> Printf.sprintf "L%d" j
  | Var_col v -> v

(* --- outer-join generation --------------------------------------------- *)

(* Check the variable-flow restriction: a variable shared between an
   ancestor group and a descendant group must occur in every group on the
   path between them, otherwise the nested left-join correlation loses
   it.  The paper's queries satisfy this by construction (scopes nest
   along joins). *)
let check_var_flow db tree groups =
  let vars_of g ~full = body_vars db (group_body tree g ~full) in
  let schema_of name = R.Database.schema db name in
  (* [path] holds the variable sets of the ancestor groups, innermost
     first.  A variable of [g] shared with an ancestor must occur in
     every group in between — or be functionally determined (within g's
     full rule body) by the variables that do flow through — otherwise
     nested correlation loses it. *)
  let rec walk path g =
    let gv = vars_of g ~full:(path = []) in
    let full_rule = (View_tree.node tree g.Reduce.g_root).View_tree.rule in
    List.iter
      (fun v ->
        let rec above_break = function
          | [] -> ()
          | av :: deeper ->
              if List.mem v av then above_break deeper
              else begin
                if List.exists (fun bv -> List.mem v bv) deeper then begin
                  let flowing = List.filter (fun x -> List.mem x av) gv in
                  if
                    not
                      (Datalog.Fd.functionally_determines ~schema_of
                         ~child:full_rule flowing [ v ])
                  then
                    unsupported
                      "variable %s is shared between non-adjacent fragments \
                       around group %d and is not determined by the flowing \
                       join variables; rewrite the view so it flows through \
                       the intermediate blocks"
                      v g.Reduce.g_root
                end;
                above_break deeper
              end
        in
        above_break path)
      gv;
    List.iter
      (fun cg -> walk (gv :: path) cg)
      (Reduce.child_groups tree groups g)
  in
  match groups with [] -> () | root :: _ -> walk [] root

let lit_int n = R.Expr.Lit (R.Value.Int n)
let lit_null = R.Expr.Lit R.Value.Null

let sfi_component sfi j =
  match List.nth_opt sfi (j - 1) with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf
           "Sql_gen.sfi_component: level %d out of range for Skolem function \
            %s (depth %d)"
           j
           (View_tree.skolem_name sfi)
           (List.length sfi))

let rec build_group db tree groups (layout : layout) ~edge_label
    (g : Reduce.group) ~(anchor_level : int) ~(full : bool) : Sql.query =
  let root = View_tree.node tree g.Reduce.g_root in
  let lg = View_tree.level root in
  let b = group_body tree g ~full in
  let positions = var_positions db b in
  let own_src v =
    match List.assoc_opt v positions with
    | Some ((a, c) :: _) -> Some (R.Expr.Col (Some a, c))
    | _ -> None
  in
  let kids = Reduce.child_groups tree groups g in
  let from_tables =
    List.map (fun (alias, (atom : D.Rule.atom)) ->
        Sql.Table { name = atom.D.Rule.rel; alias })
      b.batoms
  in
  let where = body_where db b in
  let level_lit j =
    if j > anchor_level && j <= lg then lit_int (sfi_component root.View_tree.sfi j)
    else lit_null
  in
  (* A group carrying payload (its own text contents, or members fused
     into it by reduction) must contribute a "self row" per instance even
     when it has child branches: the payload rides on the group's own
     tuples, and the tagger needs them to arrive before any sibling
     stream's rows for the same parent.  A left-outer join alone only
     pads childless instances. *)
  let has_payload =
    List.exists
      (fun m -> (View_tree.node tree m).View_tree.contents <> [])
      g.Reduce.g_members
    || List.length g.Reduce.g_members > 1
  in
  let self_select () =
    let items =
      Array.to_list layout.cols
      |> List.map (fun c ->
             let e =
               match c with
               | Level_col j -> level_lit j
               | Var_col v -> (
                   match own_src v with Some e -> e | None -> lit_null)
             in
             Sql.item ~alias:(col_name c) e)
    in
    Sql.Select { items; from = from_tables; where }
  in
  match kids with
  | [] -> { Sql.body = self_select (); order_by = [] }
  | kids ->
      (* inner derived B: own body, all layout columns (literals for own
         levels, NULL elsewhere) *)
      let balias = Printf.sprintf "b%d" g.Reduce.g_root in
      let qalias = Printf.sprintf "q%d" g.Reduce.g_root in
      let b_items =
        Array.to_list layout.cols
        |> List.map (fun c ->
               let e =
                 match c with
                 | Level_col j -> level_lit j
                 | Var_col v -> (
                     match own_src v with Some e -> e | None -> lit_null)
               in
               Sql.item ~alias:(col_name c) e)
      in
      let b_query =
        { Sql.body = Sql.Select { items = b_items; from = from_tables; where };
          order_by = [] }
      in
      let kid_queries =
        List.map
          (fun cg ->
            build_group db tree groups layout ~edge_label cg ~anchor_level:lg
              ~full:false)
          kids
      in
      let union_body =
        match List.map (fun q -> q.Sql.body) kid_queries with
        | [] ->
            invalid_arg
              "Sql_gen: internal error — branch group has no child queries \
               (degenerate reduced view; report the RXL view that produced \
               this)"
        | b0 :: rest -> List.fold_left (fun acc b -> Sql.Union_all (acc, b)) b0 rest
      in
      let gvars = body_vars db b in
      let on =
        let disjuncts =
          List.map
            (fun (cg : Reduce.group) ->
              let cg_root = View_tree.node tree cg.Reduce.g_root in
              let cl = View_tree.level cg_root in
              let guard =
                R.Expr.Cmp
                  ( R.Expr.Eq,
                    R.Expr.Col (Some qalias, Printf.sprintf "L%d" cl),
                    lit_int (sfi_component cg_root.View_tree.sfi cl) )
              in
              let cvars = body_vars db (group_body tree cg ~full:false) in
              let corr =
                List.filter (fun v -> List.mem v cvars) gvars
                |> List.map (fun v ->
                       let bv = R.Expr.Col (Some balias, v)
                       and qv = R.Expr.Col (Some qalias, v) in
                       let eq = R.Expr.Cmp (R.Expr.Eq, bv, qv) in
                       if nullable_var db b positions v then
                         R.Expr.Or
                           (eq, R.Expr.And (R.Expr.Is_null bv, R.Expr.Is_null qv))
                       else eq)
              in
              if List.length kids = 1 && corr <> [] then R.Expr.conjoin corr
              else R.Expr.conjoin (guard :: corr))
            kids
        in
        match disjuncts with
        | [] -> R.Expr.Lit (R.Value.Bool true)
        | d0 :: rest -> List.fold_left (fun acc d -> R.Expr.Or (acc, d)) d0 rest
      in
      (* When every child branch's cut... kept edge is labeled 1 or + the
         child is guaranteed to exist (C2), so an inner join suffices —
         "the outer join ... disappears" (Sec. 3.5 footnote).  Available
         only when labels were computed (reduction mode). *)
      let all_guaranteed =
        List.for_all
          (fun (cg : Reduce.group) ->
            let anchor =
              match (View_tree.node tree cg.Reduce.g_root).View_tree.parent with
              | Some a -> a
              | None -> -1
            in
            match edge_label (anchor, cg.Reduce.g_root) with
            | Some Xmlkit.Dtd.One | Some Xmlkit.Dtd.Plus -> true
            | Some Xmlkit.Dtd.Opt | Some Xmlkit.Dtd.Star | None -> false)
          kids
      in
      let joined =
        Sql.Join
          {
            left = Sql.Derived { query = b_query; alias = balias };
            kind = (if all_guaranteed then Sql.Inner else Sql.Left_outer);
            right = Sql.Derived { query = { Sql.body = union_body; order_by = [] };
                                  alias = qalias };
            on;
          }
      in
      let items =
        Array.to_list layout.cols
        |> List.map (fun c ->
               let name = col_name c in
               let e =
                 match c with
                 | Level_col j ->
                     if j <= lg then R.Expr.Col (Some balias, name)
                     else R.Expr.Col (Some qalias, name)
                 | Var_col v ->
                     if own_src v <> None then R.Expr.Col (Some balias, name)
                     else if
                       List.exists
                         (fun cg ->
                           List.mem v
                             (body_vars db (group_body tree cg ~full:false))
                           || List.exists
                                (fun m ->
                                  List.mem v
                                    (View_tree.node tree m).View_tree.rule
                                      .D.Rule.head_vars)
                                cg.Reduce.g_members)
                         (subtree_groups tree groups g)
                     then R.Expr.Col (Some qalias, name)
                     else lit_null
               in
               Sql.item ~alias:name e)
      in
      let main = Sql.Select { items; from = [ joined ]; where = None } in
      let body =
        if has_payload then Sql.Union_all (self_select (), main) else main
      in
      { Sql.body; order_by = [] }

(* all groups strictly below g in the fragment's group tree *)
and subtree_groups tree groups g =
  let kids = Reduce.child_groups tree groups g in
  kids @ List.concat_map (fun cg -> subtree_groups tree groups cg) kids

(* --- outer-union generation -------------------------------------------- *)

let build_outer_union db tree (groups : Reduce.group list) (layout : layout) :
    Sql.query =
  let branch (g : Reduce.group) =
    let root = View_tree.node tree g.Reduce.g_root in
    let lg = View_tree.level root in
    let b = group_body tree g ~full:true in
    let positions = var_positions db b in
    let own_src v =
      match List.assoc_opt v positions with
      | Some ((a, c) :: _) -> Some (R.Expr.Col (Some a, c))
      | _ -> None
    in
    let items =
      Array.to_list layout.cols
      |> List.map (fun c ->
             let e =
               match c with
               | Level_col j ->
                   if j <= lg then lit_int (sfi_component root.View_tree.sfi j)
                   else lit_null
               | Var_col v -> (
                   match own_src v with Some e -> e | None -> lit_null)
             in
             Sql.item ~alias:(col_name c) e)
    in
    let from_tables =
      List.map (fun (alias, (atom : D.Rule.atom)) ->
          Sql.Table { name = atom.D.Rule.rel; alias })
        b.batoms
    in
    Sql.Select { items; from = from_tables; where = body_where db b }
  in
  let body =
    match List.map branch groups with
    | [] -> invalid_arg "Sql_gen: empty fragment"
    | b0 :: rest -> List.fold_left (fun acc b -> Sql.Union_all (acc, b)) b0 rest
  in
  { Sql.body; order_by = [] }

(* --- entry point -------------------------------------------------------- *)

let order_by_of layout =
  Array.to_list layout.cols
  |> List.map (fun c -> (R.Expr.Col (None, col_name c), Sql.Asc))

let stream_of_fragment db tree opts (f : Partition.fragment) : stream =
  let groups = Reduce.groups_of_fragment tree ~labels:opts.labels f in
  let layout = layout_of db tree groups f in
  let edge_label =
    match opts.labels with
    | None -> fun _ -> None
    | Some labels ->
        let tbl = Hashtbl.create 16 in
        Array.iteri (fun i e -> Hashtbl.replace tbl e labels.(i)) tree.View_tree.edges;
        fun e -> Hashtbl.find_opt tbl e
  in
  let query =
    match opts.style with
    | Outer_join ->
        check_var_flow db tree groups;
        let root_group = Reduce.group_of groups f.Partition.root in
        build_group db tree groups layout ~edge_label root_group
          ~anchor_level:0 ~full:true
    | Outer_union -> build_outer_union db tree groups layout
  in
  let query = { query with Sql.order_by = order_by_of layout } in
  { fragment = f; groups; query; cols = layout.cols }

let streams db tree (p : Partition.t) (opts : options) : stream list =
  List.map
    (fun f ->
      Obs.Span.with_span "sqlgen.stream" (fun () ->
          let s = stream_of_fragment db tree opts f in
          if Obs.Span.tracing () then
            Obs.Span.add_list
              [
                Obs.Attr.string "root"
                  (View_tree.skolem_name
                     (View_tree.node tree f.Partition.root).View_tree.sfi);
                Obs.Attr.int "members" (List.length f.Partition.members);
                Obs.Attr.int "cols" (Array.length s.cols);
              ];
          s))
    (Partition.fragments p)
