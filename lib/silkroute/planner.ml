(* The greedy plan-generation algorithm (paper Sec. 5, Fig. 17).

   genPlan repeatedly estimates, for every remaining view-tree edge, the
   relative cost of evaluating its two fragment queries combined versus
   separately:

       rel(e) = cost(q_c) - (cost(q_1) + cost(q_2))
       cost(q) = a * evaluation_cost(q) + b * data_size(q)

   and greedily collapses the cheapest edge while rel(e) stays under the
   thresholds: below t1 the edge is mandatory, below t2 optional.  Here
   both terms are predicted milliseconds (Cost.time_cost): the engine's
   time for the query and the merge-tagger's for its rows, from the
   time model fitted to measured per-operator times.  Work units stay
   the executor's meter; they do not track time (sorting holds most of
   them but a small share of the time).  The RDBMS (here the Cost
   module's counting oracle, built for a prepared view by
   Middleware.gen_plan) answers the requests; fragment costs are cached
   by member set, which is why the request count stays far below the
   quadratic worst case (the paper reports 22–25 requests instead of
   81). *)

module R = Relational

type params = { a : float; b : float; t1 : float; t2 : float }

(* Thresholds in predicted milliseconds, set once for this engine and
   used for every query and configuration — the paper did the same
   (a=100, b=1, t1=-60000, t2=6000 for its commercial RDBMS) and notes
   the values depend on the database environment, not on the query.
   t2 = 0 merges an edge only when the predicted time falls; an edge
   that saves more than 1 ms is mandatory. *)
let default_params = { a = 1.0; b = 1.0; t1 = -1.0; t2 = 0.0 }

type result = {
  mandatory : (int * int) list;
  optional : (int * int) list;
  requests : int; (* cost-estimate requests issued to the oracle *)
  cache_hits : int; (* fragment-cost lookups served by the member-set cache *)
}

(* Fragment record for an arbitrary connected member set. *)
let fragment_of tree members : Partition.fragment =
  let in_members id = List.mem id members in
  let root =
    List.find
      (fun id ->
        match (View_tree.node tree id).View_tree.parent with
        | None -> true
        | Some p -> not (in_members p))
      members
  in
  let internal_edges =
    Array.to_list tree.View_tree.edges
    |> List.filter (fun (a, b) -> in_members a && in_members b)
  in
  { Partition.root; members = List.sort compare members; internal_edges }

(* Fragment estimates kept across runs, for one prepared view: keyed by
   whether the fragment's query is reduced and its member set (sorted),
   holding the oracle's whole estimate.  Candidates share fragments, and
   so do the partitions a server prices, so a fragment is priced once
   per catalog: [for_catalog] empties the table when it is handed
   another catalog than the one it was filled under.  It holds at most
   [limit] entries and empties itself when full. *)
type costs = {
  limit : int;
  mutable catalog : R.Stats.t option;
  table : (bool * int list, R.Cost.estimate) Hashtbl.t;
}

let costs ~limit = { limit; catalog = None; table = Hashtbl.create 64 }

let for_catalog c stats =
  (match c.catalog with
  | Some s when s != stats -> Hashtbl.reset c.table
  | _ -> ());
  c.catalog <- Some stats

let find_cost c ~reduce members = Hashtbl.find_opt c.table (reduce, members)
let cost_entries c = Hashtbl.length c.table

let add_cost c ~reduce members e =
  if c.limit > 0 then begin
    if Hashtbl.length c.table >= c.limit then Hashtbl.reset c.table;
    Hashtbl.replace c.table (reduce, members) e
  end

let gen_plan ?(reduce = false) ?costs (db : R.Database.t) oracle
    (tree : View_tree.t)
    (labels : Xmlkit.Dtd.multiplicity array) (params : params) : result =
 Obs.Span.with_span "planner.gen_plan" (fun () ->
  let requests0 = R.Cost.requests oracle in
  let opts =
    {
      Sql_gen.style = Sql_gen.Outer_join;
      labels = (if reduce then Some labels else None);
    }
  in
  (* The fragment-cost cache is keyed by member *set*: keys are
     canonicalized (sorted) so the same set arriving in a different
     order — e.g. the [f1 @ f2] concatenation of two component lists —
     cannot miss an earlier entry. *)
  let cache : (int list, float) Hashtbl.t = Hashtbl.create 64 in
  let canonical_key members = List.sort compare members in
  let cache_hits = ref 0 in
  (* requests [costs] answered: the oracle's counter misses them *)
  let answered = ref 0 in
  let ask key =
    match Option.bind costs (fun c -> find_cost c ~reduce key) with
    | Some est ->
        incr answered;
        est
    | None ->
        let stream =
          Sql_gen.stream_of_fragment db tree opts (fragment_of tree key)
        in
        let est = R.Cost.ask oracle stream.Sql_gen.query in
        Option.iter (fun c -> add_cost c ~reduce key est) costs;
        est
  in
  let cost_of members =
    let key = canonical_key members in
    let members_str () =
      String.concat "," (List.map string_of_int key)
    in
    match Hashtbl.find_opt cache key with
    | Some c ->
        incr cache_hits;
        if Obs.Span.tracing () then
          Obs.Event.debug "planner.cache"
            ~attrs:
              [
                Obs.Attr.string "members" (members_str ());
                Obs.Attr.bool "hit" true;
                Obs.Attr.float "cost" c;
              ];
        c
    | None ->
        let c = R.Cost.time_cost ~a:params.a ~b:params.b (ask key) in
        Hashtbl.replace cache key c;
        if Obs.Span.tracing () then
          Obs.Event.debug "planner.cache"
            ~attrs:
              [
                Obs.Attr.string "members" (members_str ());
                Obs.Attr.bool "hit" false;
                Obs.Attr.float "cost" c;
              ];
        c
  in
  (* fragments as a union-find over node ids *)
  let n = View_tree.node_count tree in
  let comp = Array.init n (fun i -> i) in
  let rec find i = if comp.(i) = i then i else find comp.(i) in
  let members_of r =
    List.filter (fun i -> find i = r) (List.init n (fun i -> i))
  in
  let merge a b =
    let ra = find a and rb = find b in
    if ra <> rb then comp.(max ra rb) <- min ra rb
  in
  let remaining = ref (Array.to_list tree.View_tree.edges) in
  let mandatory = ref [] and optional = ref [] in
  let continue_ = ref true in
  while !continue_ && !remaining <> [] do
    let costs =
      List.map
        (fun (u, v) ->
          (* one span per cost-oracle request batch: the three fragment
             estimates (combined, left, right) this edge triggers *)
          Obs.Span.with_span "plan.edge" (fun () ->
              let f1 = members_of (find u) and f2 = members_of (find v) in
              let rel = cost_of (f1 @ f2) -. (cost_of f1 +. cost_of f2) in
              if Obs.Span.tracing () then begin
                let name id =
                  View_tree.skolem_name (View_tree.node tree id).View_tree.sfi
                in
                Obs.Span.add_list
                  [
                    Obs.Attr.string "edge" (name u ^ "-" ^ name v);
                    Obs.Attr.float "rel" rel;
                  ]
              end;
              (rel, (u, v))))
        !remaining
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) costs in
    match sorted with
    | [] -> continue_ := false
    | (rel, (u, v)) :: _ ->
        if rel < params.t1 then begin
          mandatory := (u, v) :: !mandatory;
          merge u v;
          remaining := List.filter (fun e -> e <> (u, v)) !remaining
        end
        else if rel < params.t2 then begin
          optional := (u, v) :: !optional;
          merge u v;
          remaining := List.filter (fun e -> e <> (u, v)) !remaining
        end
        else continue_ := false
  done;
  let requests = R.Cost.requests oracle + !answered in
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [
        Obs.Attr.int "mandatory" (List.length !mandatory);
        Obs.Attr.int "optional" (List.length !optional);
        Obs.Attr.int "requests" (requests - requests0);
        Obs.Attr.int "cache_hits" !cache_hits;
        Obs.Attr.int "work" (requests - requests0);
      ];
  {
    mandatory = List.rev !mandatory;
    optional = List.rev !optional;
    (* per-run delta, not the oracle's cumulative counter: a reused
       oracle must not inflate later reports (the paper's 22–25 requests
       figure is per query) *)
    requests = requests - requests0;
    cache_hits = !cache_hits;
  })

(* Positions of a result's edges in the tree's edge array.  A missing
   edge means the result belongs to a different view tree — report that
   as such instead of escaping with an unlabelled [Not_found]. *)
let edge_index_of ~caller tree =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i e -> Hashtbl.replace tbl e i) tree.View_tree.edges;
  fun ((u, v) as e) ->
    match Hashtbl.find_opt tbl e with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf
             "Planner.%s: edge %d-%d is not an edge of this view tree (was \
              the plan generated for a different view?)"
             caller u v)

(* The plan family a genPlan result describes: the mandatory edges plus
   each subset of the optional edges (paper Sec. 5.1: "Each subset of the
   four optional edges defines a plan"). *)
let plans_of tree (r : result) : Partition.t list =
  let edge_index = edge_index_of ~caller:"plans_of" tree in
  let base = Array.make (View_tree.edge_count tree) false in
  List.iter (fun e -> base.(edge_index e) <- true) r.mandatory;
  let opt = Array.of_list r.optional in
  let k = Array.length opt in
  List.init (1 lsl k) (fun mask ->
      let keep = Array.copy base in
      Array.iteri
        (fun i e -> if mask land (1 lsl i) <> 0 then keep.(edge_index e) <- true)
        opt;
      Partition.of_keep tree keep)

(* The single "best" plan: mandatory plus all optional edges. *)
let best_plan tree (r : result) : Partition.t =
  let keep = Array.make (View_tree.edge_count tree) false in
  let edge_index = edge_index_of ~caller:"best_plan" tree in
  List.iter (fun e -> keep.(edge_index e) <- true) (r.mandatory @ r.optional);
  Partition.of_keep tree keep

let to_string tree (r : result) =
  let name id = View_tree.skolem_name (View_tree.node tree id).View_tree.sfi in
  Printf.sprintf "mandatory: %s; optional: %s; requests: %d (+%d cached)"
    (String.concat ", "
       (List.map (fun (a, b) -> name a ^ "-" ^ name b) r.mandatory))
    (String.concat ", "
       (List.map (fun (a, b) -> name a ^ "-" ^ name b) r.optional))
    r.requests r.cache_hits
