(* Request-scoped sharing of repeated join subtrees.  See share.mli.

   Counting is done once, over every plan of the request, before any of
   them runs: each lookup point (a join not read by a projection, or a
   projection over a join — what the executor enters as one unit) adds
   one to its key's count.  Keys counted at least twice get a slot,
   whose [remaining] uses count down as the executor looks them up; an
   entry is dropped when they reach 0.  A hit skips the lookups nested
   inside the replayed subtree, so it uses them up itself. *)

type 'a t = {
  lock : Mutex.t;
  plans : Physical.plan array;
  slots : int array array; (* per plan, by node id: slot or -1 *)
  remaining : int array; (* per slot: counted uses not yet looked up *)
  nested : int list array; (* per slot: slots of the lookups inside one occurrence *)
  entries : ('a * int) option array; (* per slot: entry and the plan that computed it *)
}

type 'a scope = { store : 'a t; index : int }

let is_join (n : Physical.node) =
  match n.Physical.shape with Physical.Join _ -> true | _ -> false

(* [f] on each lookup point of the subtree at [n], pre-order;
   [under_project]: [n] is read directly by a projection. *)
let rec points ~under_project f (n : Physical.node) =
  (match n.Physical.shape with
  | Physical.Join _ when not under_project -> f n
  | Physical.Project { input; _ } when is_join input -> f n
  | _ -> ());
  let under_project =
    match n.Physical.shape with Physical.Project _ -> true | _ -> false
  in
  List.iter (points ~under_project f) (Physical.inputs n)

(* The lookup points strictly inside [n]'s subtree. *)
let inner_points f (n : Physical.node) =
  let under_project =
    match n.Physical.shape with Physical.Project _ -> true | _ -> false
  in
  List.iter (points ~under_project f) (Physical.inputs n)

let create plans =
  let plans = Array.of_list plans in
  let keys = Array.map Physical.keys plans in
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun i (p : Physical.plan) ->
      points ~under_project:false
        (fun n ->
          let k = keys.(i).(n.Physical.id) in
          Hashtbl.replace counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        p.Physical.root)
    plans;
  (* slots in order of first occurrence, with that occurrence *)
  let slot_of = Hashtbl.create 16 and firsts = ref [] and nslots = ref 0 in
  let slots =
    Array.mapi
      (fun i (p : Physical.plan) ->
        let s = Array.make (p.Physical.nodes + 1) (-1) in
        points ~under_project:false
          (fun n ->
            let k = keys.(i).(n.Physical.id) in
            if Hashtbl.find counts k >= 2 then begin
              if not (Hashtbl.mem slot_of k) then begin
                Hashtbl.add slot_of k !nslots;
                firsts := (i, n, k) :: !firsts;
                incr nslots
              end;
              s.(n.Physical.id) <- Hashtbl.find slot_of k
            end)
          p.Physical.root;
        s)
      plans
  in
  let firsts = Array.of_list (List.rev !firsts) in
  {
    lock = Mutex.create ();
    plans;
    slots;
    remaining = Array.map (fun (_, _, k) -> Hashtbl.find counts k) firsts;
    nested =
      Array.map
        (fun (i, n, _) ->
          let acc = ref [] in
          inner_points
            (fun m ->
              let s = slots.(i).(m.Physical.id) in
              if s >= 0 then acc := s :: !acc)
            n;
          !acc)
        firsts;
    entries = Array.make !nslots None;
  }

let subtrees t = Array.length t.remaining

let scope t index =
  if index < 0 || index >= Array.length t.plans then
    invalid_arg "Share.scope: no such plan";
  { store = t; index }

let plan sc = sc.store.plans.(sc.index)
let slot sc (n : Physical.node) = sc.store.slots.(sc.index).(n.Physical.id)

(* One use of [s], under the lock: the entry goes once none is left. *)
let use t s =
  t.remaining.(s) <- t.remaining.(s) - 1;
  if t.remaining.(s) <= 0 then t.entries.(s) <- None

let take sc s =
  let t = sc.store in
  Mutex.protect t.lock (fun () ->
      let hit = t.entries.(s) in
      if Option.is_some hit then List.iter (use t) t.nested.(s);
      use t s;
      hit)

let put sc s entry =
  let t = sc.store in
  Mutex.protect t.lock (fun () ->
      if t.remaining.(s) > 0 && Option.is_none t.entries.(s) then
        t.entries.(s) <- Some (entry, sc.index))
