(* View trees (paper Sec. 3.1).

   A view tree is the intermediate representation of an RXL view: the
   global XML template (one node per element template, merged by Skolem
   function) where each node carries a non-recursive datalog rule that
   computes all instances of that node.

   Construction from RXL:
   - every binding occurrence gets a unique alias (also the SQL alias);
   - equality conditions that involve a binding introduced in the same
     block unify the two column variables (giving the shared-variable
     datalog bodies of the paper's Fig. 4); other conditions stay as
     filters;
   - a node's rule body conjoins the atoms and filters of every block in
     scope; its Skolem term (head) takes the keys of all in-scope tuple
     variables plus the node's content variables;
   - Skolem-function indices (S1.4.2 = [1;4;2]) number elements
     hierarchically; Skolem-term variable indices (p,q) assign p = level
     of the node that introduces the variable and q = a per-level
     counter, in BFS order (Sec. 3.1). *)

module R = Relational
module D = Datalog

type content = Content_var of string | Content_const of R.Value.t

type node = {
  id : int;
  parent : int option;
  tag : string;
  explicit_skolem : string option;
  sfi : int list; (* Skolem-function index, e.g. [1;4;2] *)
  sibling_index : int; (* position among the parent's content items *)
  scope : (string * string) list; (* (alias, table) for each atom, in order *)
  rule : D.Rule.t; (* head_name = skolem name, head_vars = key @ content *)
  key_vars : string list; (* instance identity *)
  contents : (int * content) list; (* item index -> text payload *)
  delta_atoms : D.Rule.atom list; (* atoms not in the parent's body *)
  delta_scope : (string * string) list; (* scope entries for delta atoms *)
  delta_filters : D.Rule.filter list;
}

type t = {
  root_tag : string;
  nodes : node array; (* id = index, BFS order *)
  edges : (int * int) array; (* (parent, child), BFS order *)
  svi : (string * (int * int)) list; (* variable -> (level p, counter q) *)
}

let level n = List.length n.sfi

let skolem_name sfi =
  "S" ^ String.concat "." (List.map string_of_int sfi)

let node t id = t.nodes.(id)
let node_count t = Array.length t.nodes
let edge_count t = Array.length t.edges

(* --- construction ----------------------------------------------------- *)

exception Unsupported of string

(* Union-find over (alias, column) pairs, for variable unification. *)
module UF = struct
  type t = (string * string, string * string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find (uf : t) x =
    match Hashtbl.find_opt uf x with
    | None -> x
    | Some p ->
        let r = find uf p in
        if r <> p then Hashtbl.replace uf x r;
        r

  (* Union with a preferred representative: [keep] survives. *)
  let union (uf : t) ~keep other =
    let rk = find uf keep and ro = find uf other in
    if rk <> ro then Hashtbl.replace uf ro rk
end

type build_ctx = {
  db : R.Database.t;
  uf : UF.t;
  mutable alias_counts : (string * int) list;
  mutable nodes_rev : node list;
  mutable edges_rev : (int * int) list;
  mutable next_id : int;
}

let fresh_alias ctx base =
  let n =
    match List.assoc_opt base ctx.alias_counts with Some n -> n | None -> 0
  in
  ctx.alias_counts <- (base, n + 1) :: List.remove_assoc base ctx.alias_counts;
  if n = 0 then base else Printf.sprintf "%s%d" base (n + 1)

let var_name (alias, col) = alias ^ "_" ^ col

(* Scope carried down the template walk. *)
type walk_scope = {
  bindings : (string * string * string) list;
  (* (rxl var, alias, table) — innermost last *)
  filters : D.Rule.filter list;
  var_of_field : (string * string) -> (string * string);
  (* (rxl var, col) -> canonical (alias, col), raises Not_found *)
}

let of_view (db : R.Database.t) (v : Rxl.view) : t =
  Rxl.check db v;
  let ctx =
    {
      db;
      uf = UF.create ();
      alias_counts = [];
      nodes_rev = [];
      edges_rev = [];
      next_id = 0;
    }
  in

  (* Pass 1: assign aliases to binding occurrences and run the
     unification over equality conditions, so variable names are globally
     consistent before any rule is built. *)
  let alias_of_block : (Rxl.query, (string * string) list) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Passes 2 and 3 replay the prepass scopes; a missing block means the
     prepass never visited it, which a bare [Not_found] would hide. *)
  let aliases_of_block (q : Rxl.query) =
    match Hashtbl.find_opt alias_of_block q with
    | Some aliases -> aliases
    | None ->
        let block =
          String.concat ", "
            (List.map
               (fun (b : Rxl.binding) -> b.Rxl.table ^ " $" ^ b.Rxl.var)
               q.Rxl.from_)
        in
        invalid_arg
          ("View_tree: no aliases recorded for query block [from " ^ block
         ^ "] — the block was not visited by the alias prepass")
  in
  let rec prepass (outer : (string * string * string) list) (q : Rxl.query) =
    let new_bindings =
      List.map
        (fun (b : Rxl.binding) -> (b.Rxl.var, fresh_alias ctx b.Rxl.var, b.Rxl.table))
        q.Rxl.from_
    in
    Hashtbl.replace alias_of_block q
      (List.map (fun (v, a, _) -> (v, a)) new_bindings);
    let scope = outer @ new_bindings in
    let lookup_field (var, col) =
      match List.find_opt (fun (v, _, _) -> v = var) scope with
      | Some (_, alias, _) -> (alias, col)
      | None -> raise (Unsupported ("unbound $" ^ var))
    in
    let introduced_here var = List.exists (fun (v, _, _) -> v = var) new_bindings in
    List.iter
      (fun (c : Rxl.condition) ->
        match (c.Rxl.op, c.Rxl.left, c.Rxl.right) with
        | R.Expr.Eq, Rxl.Field (v1, c1), Rxl.Field (v2, c2) ->
            let p1 = lookup_field (v1, c1) and p2 = lookup_field (v2, c2) in
            (* unify when either side is introduced in this block; the
               outer (or left) side's name survives *)
            if introduced_here v2 && not (introduced_here v1) then
              UF.union ctx.uf ~keep:(UF.find ctx.uf p1) p2
            else if introduced_here v1 && not (introduced_here v2) then
              UF.union ctx.uf ~keep:(UF.find ctx.uf p2) p1
            else if introduced_here v1 && introduced_here v2 then
              UF.union ctx.uf ~keep:(UF.find ctx.uf p1) p2
        | _ -> ())
      q.Rxl.where_;
    List.iter (prepass_node scope) q.Rxl.construct
  and prepass_node scope = function
    | Rxl.Element e -> List.iter (prepass_node scope) e.Rxl.content
    | Rxl.Text _ -> ()
    | Rxl.Block q -> prepass scope q
  in
  List.iter (prepass []) v.Rxl.queries;

  (* Referenced columns: keys of all bound tables + fields used in
     conditions and contents.  Collected so every atom of an alias is
     identical in every rule. *)
  let referenced : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let canon (alias, col) = UF.find ctx.uf (alias, col) in
  let reference (alias, col) =
    Hashtbl.replace referenced (canon (alias, col)) ()
  in

  (* Pass 2 will need field resolution identical to pass 1: rebuild the
     scopes using the recorded aliases. *)
  let rec collect (outer : (string * string * string) list) (q : Rxl.query) =
    let aliases = aliases_of_block q in
    let new_bindings =
      List.map
        (fun (b : Rxl.binding) ->
          (b.Rxl.var, List.assoc b.Rxl.var aliases, b.Rxl.table))
        q.Rxl.from_
    in
    let scope = outer @ new_bindings in
    let lookup_field (var, col) =
      match List.find_opt (fun (v, _, _) -> v = var) scope with
      | Some (_, alias, _) -> (alias, col)
      | None -> raise (Unsupported ("unbound $" ^ var))
    in
    List.iter
      (fun (_, alias, table) ->
        let schema = R.Database.schema db table in
        List.iter (fun k -> reference (alias, k)) schema.R.Schema.key)
      new_bindings;
    List.iter
      (fun (c : Rxl.condition) ->
        let refer = function
          | Rxl.Field (v, col) -> reference (lookup_field (v, col))
          | Rxl.Const _ -> ()
        in
        refer c.Rxl.left;
        refer c.Rxl.right)
      q.Rxl.where_;
    List.iter (collect_node scope) q.Rxl.construct
  and collect_node scope = function
    | Rxl.Element e -> List.iter (collect_node scope) e.Rxl.content
    | Rxl.Text (Rxl.Field (v, col)) ->
        let lookup (var, c) =
          match List.find_opt (fun (v', _, _) -> v' = var) scope with
          | Some (_, alias, _) -> (alias, c)
          | None -> raise (Unsupported ("unbound $" ^ var))
        in
        reference (lookup (v, col))
    | Rxl.Text (Rxl.Const _) -> ()
    | Rxl.Block q -> collect scope q
  in
  List.iter (collect []) v.Rxl.queries;

  (* Atom for one bound alias. *)
  let atom_of (alias, table) : D.Rule.atom =
    let schema = R.Database.schema db table in
    let args =
      List.map
        (fun col ->
          let rep = canon (alias, col) in
          if Hashtbl.mem referenced rep then D.Rule.Var (var_name rep)
          else D.Rule.Wild)
        (R.Schema.column_names schema)
    in
    D.Rule.atom table args
  in

  (* Pass 3: build nodes. *)
  let pending_contents : (int * (int * content)) list ref = ref [] in
  let rec walk_query (ws : walk_scope) (parent : (int * node) option)
      (item_index : int ref) (q : Rxl.query) =
    let aliases = aliases_of_block q in
    let new_bindings =
      List.map
        (fun (b : Rxl.binding) ->
          (b.Rxl.var, List.assoc b.Rxl.var aliases, b.Rxl.table))
        q.Rxl.from_
    in
    let bindings = ws.bindings @ new_bindings in
    let var_of_field (var, col) =
      match List.find_opt (fun (v, _, _) -> v = var) bindings with
      | Some (_, alias, _) -> canon (alias, col)
      | None -> raise (Unsupported ("unbound $" ^ var))
    in
    let term_of = function
      | Rxl.Field (v, col) -> D.Rule.Var (var_name (var_of_field (v, col)))
      | Rxl.Const c -> D.Rule.Const c
    in
    let new_filters =
      List.filter_map
        (fun (c : Rxl.condition) ->
          match (c.Rxl.op, c.Rxl.left, c.Rxl.right) with
          | R.Expr.Eq, Rxl.Field _, Rxl.Field _ ->
              let l = term_of c.Rxl.left and r = term_of c.Rxl.right in
              if l = r then None (* absorbed by unification *)
              else Some (D.Rule.filter c.Rxl.op l r)
          | op, l, r -> Some (D.Rule.filter op (term_of l) (term_of r)))
        q.Rxl.where_
    in
    let ws =
      { bindings; filters = ws.filters @ new_filters; var_of_field }
    in
    List.iter (walk_item ws parent item_index) q.Rxl.construct

  and walk_item ws parent item_index = function
    | Rxl.Text op ->
        let idx = !item_index in
        incr item_index;
        (match parent with
        | None -> raise (Unsupported "text at document root")
        | Some (pid, _) ->
            (* attach to the parent node: the content list is patched at
               the end of the build, so record it via a mutable side
               table *)
            let c =
              match op with
              | Rxl.Field (v, col) ->
                  Content_var (var_name (ws.var_of_field (v, col)))
              | Rxl.Const c -> Content_const c
            in
            pending_contents := (pid, (idx, c)) :: !pending_contents)
    | Rxl.Block q -> walk_query ws parent item_index q
    | Rxl.Element e ->
        let idx = !item_index in
        incr item_index;
        let id = ctx.next_id in
        ctx.next_id <- id + 1;
        let scope = List.map (fun (_, a, t) -> (a, t)) ws.bindings in
        let atoms = List.map atom_of scope in
        let key_vars =
          List.concat_map
            (fun (_, alias, table) ->
              let schema = R.Database.schema db table in
              List.map (fun k -> var_name (canon (alias, k))) schema.R.Schema.key)
            ws.bindings
          |> List.fold_left
               (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
               []
        in
        let parent_id, parent_node =
          match parent with
          | None -> (None, None)
          | Some (pid, pn) -> (Some pid, Some pn)
        in
        let parent_atoms =
          match parent_node with Some p -> p.rule.D.Rule.atoms | None -> []
        in
        let parent_filters =
          match parent_node with Some p -> p.rule.D.Rule.filters | None -> []
        in
        let delta_atoms =
          List.filter (fun a -> not (List.mem a parent_atoms)) atoms
        in
        let delta_scope =
          List.filter (fun s -> not (List.mem (atom_of s) parent_atoms)) scope
        in
        let delta_filters =
          List.filter (fun f -> not (List.mem f parent_filters)) ws.filters
        in
        (match parent_id with
        | Some pid -> ctx.edges_rev <- (pid, id) :: ctx.edges_rev
        | None -> ());
        let n =
          {
            id;
            parent = parent_id;
            tag = e.Rxl.tag;
            explicit_skolem = e.Rxl.skolem;
            sfi = []; (* assigned below *)
            sibling_index = idx;
            scope;
            rule =
              D.Rule.make ~head_name:"" ~head_vars:key_vars (* patched *)
                ~filters:ws.filters atoms;
            key_vars;
            contents = [];
            delta_atoms;
            delta_scope;
            delta_filters;
          }
        in
        ctx.nodes_rev <- n :: ctx.nodes_rev;
        let child_index = ref 0 in
        List.iter (walk_item ws (Some (id, n)) child_index) e.Rxl.content
  in

  let top_index = ref 0 in
  List.iter
    (fun q ->
      walk_query
        { bindings = []; filters = []; var_of_field = (fun _ -> raise Not_found) }
        None top_index q)
    v.Rxl.queries;

  let nodes = Array.of_list (List.rev ctx.nodes_rev) in
  (* Attach contents. *)
  let nodes =
    Array.map
      (fun n ->
        let contents =
          List.filter_map
            (fun (pid, c) -> if pid = n.id then Some c else None)
            (List.rev !pending_contents)
          |> List.sort compare
        in
        { n with contents })
      nodes
  in
  (* Assign SFIs hierarchically: root elements 1..; children numbered by
     element order under their parent.  Parents precede children in
     creation order, so a single left-to-right pass suffices. *)
  let child_counter = Hashtbl.create 16 in
  let next_child key =
    let c = try Hashtbl.find child_counter key with Not_found -> 0 in
    Hashtbl.replace child_counter key (c + 1);
    c + 1
  in
  let sfis = Array.make (Array.length nodes) [] in
  Array.iteri
    (fun i n ->
      assert (match n.parent with Some pid -> pid < i | None -> true);
      sfis.(i) <-
        (match n.parent with
        | None -> [ next_child (-1) ]
        | Some pid -> sfis.(pid) @ [ next_child pid ]))
    nodes;
  let nodes = Array.mapi (fun i n -> { n with sfi = sfis.(i) }) nodes in
  (* Patch rules: head name = Skolem name (explicit if given), head vars =
     key vars + content vars. *)
  let nodes =
    Array.map
      (fun n ->
        let cvars =
          List.filter_map
            (fun (_, c) ->
              match c with Content_var v -> Some v | Content_const _ -> None)
            n.contents
        in
        let head_vars =
          n.key_vars
          @ List.filter (fun v -> not (List.mem v n.key_vars)) cvars
        in
        let name =
          match n.explicit_skolem with
          | Some s -> s
          | None -> skolem_name n.sfi
        in
        { n with rule = { n.rule with D.Rule.head_name = name; head_vars } })
      nodes
  in
  (* SVI assignment: BFS by (level, id); q is a per-level counter. *)
  let by_level =
    Array.to_list nodes
    |> List.sort (fun a b ->
           compare (List.length a.sfi, a.id) (List.length b.sfi, b.id))
  in
  let svi = ref [] in
  let level_counters = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let p = List.length n.sfi in
      List.iter
        (fun v ->
          if not (List.mem_assoc v !svi) then begin
            let q = (try Hashtbl.find level_counters p with Not_found -> 0) + 1 in
            Hashtbl.replace level_counters p q;
            svi := !svi @ [ (v, (p, q)) ]
          end)
        n.rule.D.Rule.head_vars)
    by_level;
  let edges = Array.of_list (List.rev ctx.edges_rev) in
  (* Order edges BFS: by (parent level, parent id, child sibling order). *)
  let edges_list =
    Array.to_list edges
    |> List.sort (fun (p1, c1) (p2, c2) ->
           compare
             (List.length nodes.(p1).sfi, p1, nodes.(c1).sfi)
             (List.length nodes.(p2).sfi, p2, nodes.(c2).sfi))
  in
  { root_tag = v.Rxl.root_tag; nodes; edges = Array.of_list edges_list; svi = !svi }

(* --- derived info ------------------------------------------------------ *)

(* Global sort-attribute sequence: L1, key vars(level 1), L2, key
   vars(level 2), …, then all content-only variables.  Every partitioned
   relation is sorted by the restriction of this sequence to its own
   columns, which is what lets the tagger merge streams with a single
   comparator (Sec. 3.2).

   Deviation from the paper's interleaved L/V order: content-only
   variables (those in no node's key set) are moved after every level
   attribute.  They are functionally determined by the keys, so grouping
   is unaffected, but placing them before deeper L columns would let a
   child-fragment row (content = NULL) sort before its parent's own row
   (content present), breaking the parent-first merge invariant. *)
type sort_attr = Level of int | Variable of string

let sort_attrs t =
  let max_level =
    Array.fold_left (fun m n -> max m (List.length n.sfi)) 0 t.nodes
  in
  let is_key v =
    Array.exists (fun n -> List.mem v n.key_vars) t.nodes
  in
  let key_vars_at p =
    List.filter_map
      (fun (v, (p', q)) -> if p' = p && is_key v then Some (q, v) else None)
      t.svi
    |> List.sort compare
    |> List.map snd
  in
  let content_vars =
    List.filter_map (fun (v, pq) -> if is_key v then None else Some (pq, v)) t.svi
    |> List.sort compare
    |> List.map snd
  in
  List.concat_map
    (fun p -> Level p :: List.map (fun v -> Variable v) (key_vars_at p))
    (List.init max_level (fun i -> i + 1))
  @ List.map (fun v -> Variable v) content_vars

(* Ground-truth instance set of a node, via naive datalog evaluation. *)
let instances db t id = Datalog.Eval.run db t.nodes.(id).rule

let pp fmt t =
  Array.iter
    (fun n ->
      Format.fprintf fmt "%s%s <%s>  %s@,"
        (String.make (2 * (level n - 1)) ' ')
        (skolem_name n.sfi) n.tag
        (D.Rule.to_string n.rule))
    t.nodes

let to_string t = Format.asprintf "@[<v>%a@]" pp t
