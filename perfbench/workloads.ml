(* The benchmark's workloads and their request scripts.

   A script is a pure function of (workload, seed, seconds): the same
   requests in the same order on every run, so two runs of one seed
   execute an identical mix.  Every seed executes the same mix too: the
   request kinds come in balanced blocks, and the lattice points and
   serve-churn's keys and Zipf draws come from a seed-independent stream.
   The seed moves the order of the requests and the generated data, so
   run-to-run spread measures the system, not the mix. *)

module R = Relational
module S = Silkroute

type request =
  | Query of { view : int; strategy : string; reduce : bool }
  | Invalidate

type t = {
  name : string;
  scale : float;  (** TPC-H scale factor of the generated database *)
  statement_cache : int;  (** server cache capacities, as CLI flags *)
  plan_cache : int;
  result_cache : int;
  rate : float;  (** nominal queries per second the script is sized for *)
  min_queries : int;
      (** floor on the timed script, so the p90 keeps at least ten
          samples beyond it *)
  warmup : int;  (** queries sent during set-up, before timing *)
  passes : int;
      (** times the timed script is played, each on a freshly set-up
          server; the percentiles pool the latencies of all passes *)
}

let d = Server.Service.default_config
let off = (0, 0, 0)
let default_caches = Server.Service.(d.statement_capacity, d.plan_capacity, d.result_capacity)

let workload name ~scale ~caches:(statement_cache, plan_cache, result_cache) ~rate
    ~min_queries ~warmup ~passes =
  { name; scale; statement_cache; plan_cache; result_cache; rate; min_queries; warmup; passes }

let all =
  [
    workload "export-lattice" ~scale:1.0 ~caches:off ~rate:32.0 ~min_queries:100
      ~warmup:6 ~passes:3;
    workload "export-greedy-large" ~scale:6.0 ~caches:off ~rate:6.0 ~min_queries:100
      ~warmup:6 ~passes:1;
    workload "serve-hot" ~scale:1.0 ~caches:default_caches ~rate:10000.0
      ~min_queries:1000 ~warmup:12 ~passes:3;
    (let s, p, _ = default_caches in
     workload "serve-churn" ~scale:1.0 ~caches:(s, p, 3 * 1024 * 1024) ~rate:100.0
       ~min_queries:300 ~warmup:32 ~passes:3);
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) all)))

(* One pass plays [rate * seconds / passes] queries: all passes together
   take about [seconds]. *)
let timed_queries w ~seconds =
  let per_pass = w.rate *. float_of_int seconds /. float_of_int w.passes in
  max w.min_queries (int_of_float (Float.ceil per_pass))

let server_args w =
  [
    "--parallel"; "1";
    "--statement-cache"; string_of_int w.statement_cache;
    "--plan-cache"; string_of_int w.plan_cache;
    "--result-cache"; string_of_int w.result_cache;
  ]

(* serve-churn shape: keys per (view, reduce) pair, an invalidation every
   [churn_every] queries, and the exponent of the Zipf draws *)
let churn_strategies = 32
let churn_every = 150
let churn_skew = 1.5

let views =
  [| S.Queries.query1_text; S.Queries.query2_text; S.Queries.query3_text |]

let view_names = [| "q1"; "q2"; "q3" |]

(* --- context: what the scripts need to know about views and data ------- *)

type ctx = {
  db : R.Database.t;
  prepared : S.Middleware.prepared array;  (** one per view *)
  greedy : int array Lazy.t;
      (** the greedy planner's best-plan mask per [view * 2 + reduce] *)
  refs : string array Lazy.t;  (** reference XML per view *)
}

(* Any point of the lattice yields these exact bytes (that is what the
   server's tests pin), so one reference per view checks every reply. *)
let reference p =
  let e = S.Middleware.execute p (S.Middleware.partition_of p S.Middleware.Unified) in
  S.Middleware.xml_string_of p e

let greedy_masks db prepared =
  let oracle = R.Cost.oracle_with_stats db (R.Stats.analyze db) in
  Array.init (2 * Array.length prepared) (fun i ->
      let p = prepared.(i / 2) in
      let tree = p.S.Middleware.tree in
      let r =
        S.Planner.gen_plan ~reduce:(i mod 2 = 1) db oracle tree
          p.S.Middleware.labels S.Planner.default_params
      in
      S.Partition.to_mask (S.Planner.best_plan tree r))

let context ?refs db =
  let prepared = Array.map (S.Middleware.prepare_text db) views in
  {
    db;
    prepared;
    greedy = lazy (greedy_masks db prepared);
    refs =
      (match refs with
      | Some r -> Lazy.from_val r
      | None -> lazy (Array.map reference prepared));
  }

let database w ~seed =
  Tpch.Gen.generate (Tpch.Gen.config ~seed:(Int64.of_int seed) w.scale)

(* --- script generation -------------------------------------------------- *)

let rng w ~seed = Random.State.make [| seed; Hashtbl.hash w.name |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [n] draws in blocks that are each a random permutation of [items]. *)
let balanced st items n =
  let k = Array.length items in
  let block = Array.copy items in
  Array.init n (fun i ->
      if i mod k = 0 then shuffle st block;
      block.(i mod k))

let pairs = Array.init (2 * Array.length views) (fun i -> (i / 2, i mod 2 = 1))
let edges ctx v = S.View_tree.edge_count ctx.prepared.(v).S.Middleware.tree
let edges_strategy mask = "edges:" ^ string_of_int mask

let mask_of ctx = function
  | Query { view; strategy = "greedy"; reduce } ->
      (Lazy.force ctx.greedy).((2 * view) + if reduce then 1 else 0)
  | Query { view; strategy = "partitioned"; _ } ->
      S.Partition.to_mask
        (S.Partition.fully_partitioned ctx.prepared.(view).S.Middleware.tree)
  | Query { strategy; _ } ->
      int_of_string (String.sub strategy 6 (String.length strategy - 6))
  | Invalidate -> invalid_arg "Workloads.mask_of: not a query"

(* Lattice points come from [mix], the same for every seed; the seed
   orders the timed ones. *)
let lattice w ctx ~mix st n =
  let reqs =
    Array.map
      (fun (view, reduce) ->
        let mask = Random.State.int mix (1 lsl edges ctx view) in
        Query { view; strategy = edges_strategy mask; reduce })
      (balanced mix pairs n)
  in
  let timed = Array.sub reqs w.warmup (n - w.warmup) in
  shuffle st timed;
  Array.append (Array.sub reqs 0 w.warmup) timed

(* Blocks of seven: the six (view, reduce) pairs and q1 unreduced, the
   largest document, once more.  With six equally frequent pairs the
   median would fall exactly between the third and the fourth cheapest
   pair and read either one from run to run. *)
let greedy_large st n =
  Array.map
    (fun (view, reduce) -> Query { view; strategy = "greedy"; reduce })
    (balanced st (Array.append pairs [| (0, false) |]) n)

let hot st n =
  let keys =
    Array.concat
      (List.map
         (fun strategy ->
           Array.map (fun (view, reduce) -> Query { view; strategy; reduce }) pairs)
         [ "greedy"; "partitioned" ])
  in
  balanced st keys n

(* serve-churn: a fixed list of keys, per (view, reduce) pair its greedy
   plan and up to [churn_strategies - 1] lattice points, Zipf-ranked;
   each query is one Zipf draw over the ranks.  The result tier holds
   fewer replies than there are keys, so how many queries it answers is
   measured on the server, not arranged by the script.  The keys, their
   ranks and the draws come from [mix], the same for every seed; the
   seed orders the timed queries within each stretch between two
   invalidations. *)
let churn w ctx ~mix st n =
  let keys =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (view, reduce) ->
              let lattice = 1 lsl edges ctx view in
              let masks = Hashtbl.create 64 in
              while Hashtbl.length masks < min (churn_strategies - 1) lattice do
                Hashtbl.replace masks (Random.State.int mix lattice) ()
              done;
              let masks = List.sort compare (Hashtbl.fold (fun m () l -> m :: l) masks []) in
              Array.of_list
                (Query { view; strategy = "greedy"; reduce }
                :: List.map
                     (fun m -> Query { view; strategy = edges_strategy m; reduce })
                     masks))
            pairs))
  in
  shuffle mix keys;
  (* cumulative Zipf weights, searched by bisection *)
  let cdf = Array.make (Array.length keys) 0.0 in
  Array.iteri
    (fun r _ ->
      let z = 1.0 /. (float_of_int (r + 1) ** churn_skew) in
      cdf.(r) <- (if r = 0 then z else cdf.(r - 1) +. z))
    cdf;
  let draw _ =
    let u = Random.State.float mix cdf.(Array.length cdf - 1) in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if u < cdf.(mid) then find lo mid else find (mid + 1) hi
    in
    keys.(find 0 (Array.length cdf - 1))
  in
  let queries = Array.init n draw in
  let epoch_start q = q > 0 && q mod churn_every = 0 in
  let from = ref w.warmup in
  for q = w.warmup + 1 to n do
    if q = n || epoch_start q then begin
      let stretch = Array.sub queries !from (q - !from) in
      shuffle st stretch;
      Array.blit stretch 0 queries !from (q - !from);
      from := q
    end
  done;
  let out = ref [] in
  Array.iteri
    (fun q r ->
      if epoch_start q then out := Invalidate :: !out;
      out := r :: !out)
    queries;
  Array.of_list (List.rev !out)

(* Set-up requests first, then the timed script: the warm-up is the
   start of the workload's own stream of requests. *)
let script w ctx ~seed ~seconds =
  let st = rng w ~seed in
  let mix = Random.State.make [| Hashtbl.hash w.name; 0x6d6978 |] in
  let n = w.warmup + timed_queries w ~seconds in
  let reqs =
    match w.name with
    | "export-lattice" -> lattice w ctx ~mix st n
    | "export-greedy-large" -> greedy_large st n
    | "serve-hot" -> hot st n
    | "serve-churn" -> churn w ctx ~mix st n
    | other -> invalid_arg ("Workloads.script: no generator for " ^ other)
  in
  (* the warm-up holds [w.warmup] queries and every request before them *)
  let rec split i queries =
    if queries = w.warmup then i
    else
      match reqs.(i) with
      | Query _ -> split (i + 1) (queries + 1)
      | Invalidate -> split (i + 1) queries
  in
  let k = split 0 0 in
  (Array.sub reqs 0 k, Array.sub reqs k (Array.length reqs - k))

(* --- script files --------------------------------------------------------- *)

(* One request per line: [Q <view> <reduce 0|1> <strategy>] or [I]. *)
let to_line = function
  | Query { view; strategy; reduce } ->
      Printf.sprintf "Q %d %d %s" view (if reduce then 1 else 0) strategy
  | Invalidate -> "I"

let of_line line =
  match String.split_on_char ' ' line with
  | [ "Q"; view; reduce; strategy ] ->
      Query { view = int_of_string view; strategy; reduce = reduce = "1" }
  | [ "I" ] -> Invalidate
  | _ -> invalid_arg ("Workloads.of_line: bad script line: " ^ line)

let write_script path reqs =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter (fun r -> output_string oc (to_line r ^ "\n")) reqs)

let read_script path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map of_line |> Array.of_list

let to_protocol = function
  | Query { view; strategy; reduce } ->
      Server.Protocol.Query { view = views.(view); strategy; reduce }
  | Invalidate -> Server.Protocol.Invalidate { table = ""; factor = 1.0 }
