(* View-tree partitioning (paper Sec. 3.2).

   A plan is a subset of view-tree edges: kept edges merge their
   endpoints into one SQL query; cut edges separate tuple streams.  Every
   subset of the |E| edges is a plan — a spanning forest of the view tree
   — so there are 2^|E| plans (512 for the paper's 9-edge queries). *)

type t = {
  tree : View_tree.t;
  keep : bool array; (* parallel to tree.edges *)
}

(* A fragment: one tree of the spanning forest = one SQL query = one
   tuple stream. *)
type fragment = {
  root : int; (* node id of the fragment's root *)
  members : int list; (* node ids, document order (root first) *)
  internal_edges : (int * int) list; (* kept edges inside the fragment *)
}

let of_keep tree keep =
  if Array.length keep <> View_tree.edge_count tree then
    invalid_arg "Partition.of_keep: keep array must match edge count";
  { tree; keep }

let of_mask tree mask =
  let n = View_tree.edge_count tree in
  if mask < 0 || (n < 62 && mask >= 1 lsl n) then
    invalid_arg "Partition.of_mask: mask out of range";
  { tree; keep = Array.init n (fun i -> mask land (1 lsl i) <> 0) }

let to_mask p =
  Array.to_list p.keep
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

let unified tree =
  { tree; keep = Array.make (View_tree.edge_count tree) true }

let fully_partitioned tree =
  { tree; keep = Array.make (View_tree.edge_count tree) false }

let all_masks tree =
  let n = View_tree.edge_count tree in
  if n >= 20 then
    invalid_arg "Partition.all_masks: too many edges for exhaustive plans";
  List.init (1 lsl n) (fun m -> m)

let kept_edges p =
  Array.to_list p.tree.View_tree.edges
  |> List.filteri (fun i _ -> p.keep.(i))

(* Connected components under kept edges. *)
let fragments p : fragment list =
  let tree = p.tree in
  let n = View_tree.node_count tree in
  let comp = Array.init n (fun i -> i) in
  let rec find i = if comp.(i) = i then i else find comp.(i) in
  List.iter
    (fun (a, b) ->
      let ra = find a and rb = find b in
      if ra <> rb then comp.(max ra rb) <- min ra rb)
    (kept_edges p);
  let members = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    let r = find i in
    let cur = try Hashtbl.find members r with Not_found -> [] in
    Hashtbl.replace members r (i :: cur)
  done;
  let kept = kept_edges p in
  Hashtbl.fold
    (fun root ms acc ->
      {
        root;
        members = ms;
        internal_edges =
          List.filter (fun (a, _) -> find a = root) kept;
      }
      :: acc)
    members []
  |> List.sort (fun a b -> compare a.root b.root)

let stream_count p = List.length (fragments p)

(* One degradation step down the plan lattice: cut the fragment's first
   internal edge (view-tree edge order, so the cut lands closest to the
   fragment root), splitting it into two finer fragments whose streams
   jointly cover the same view-tree nodes.  Node ids are assigned in BFS
   order with parents before children, so each resulting component's
   root is its minimum member id. *)
let split (f : fragment) : fragment list option =
  match f.internal_edges with
  | [] -> None (* single node (or no kept edges): nothing finer exists *)
  | _cut :: remaining ->
      let comp = Hashtbl.create 8 in
      List.iter (fun m -> Hashtbl.replace comp m m) f.members;
      let rec find i =
        let p = Hashtbl.find comp i in
        if p = i then i else find p
      in
      List.iter
        (fun (a, b) ->
          let ra = find a and rb = find b in
          if ra <> rb then Hashtbl.replace comp (max ra rb) (min ra rb))
        remaining;
      let roots = List.sort_uniq compare (List.map find f.members) in
      Some
        (List.map
           (fun r ->
             {
               root = r;
               members = List.filter (fun m -> find m = r) f.members;
               internal_edges =
                 List.filter (fun (a, _) -> find a = r) remaining;
             })
           roots)

(* Human-readable plan id, e.g. "{S1-S1.1, S1.4-S1.4.2}". *)
let to_string p =
  let name id = View_tree.skolem_name (View_tree.node p.tree id).View_tree.sfi in
  "{"
  ^ String.concat ", "
      (List.map (fun (a, b) -> name a ^ "-" ^ name b) (kept_edges p))
  ^ "}"
