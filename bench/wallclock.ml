(* Measured Figs. 13/14: does the cost oracle rank plans the way the
   clock does?

   `bench --experiment lattice-wallclock` runs every lattice point of
   q1-q3 (every mask x reduce, outer-join style) at scales 1 and 6, in
   process and untraced: one warm-up, then [reps] timed runs of
   Middleware.execute + xml_string_of, keeping the median.  It reports
   rank correlations among the planner's predicted time, the work units
   and the measured time, the paper's unified- and partitioned-vs-best
   ratios in measured time, greedy's regret from a round-robin
   re-measure of its pick against the fastest masks, and a least-squares
   fit of the time model's weights (Cost.time_model) to the measured
   per-operator and tagger times.  It is a report, not a gate: every
   record goes to [jsonl_path], stamped with the machine, and
   `check_obs lattice` validates the file.

   Times that compare plans, and sweeps with each other, are normalized
   by a reference loop timed beside every block of runs (see
   [reference_loop]), so that a host slowed by other tenants does not
   read as slower plans. *)

module R = Relational
module S = Silkroute

let jsonl_path = "BENCH_lattice_wallclock.jsonl"
let scales = [ 1.0; 6.0 ]
let reps = 3
let rr_reps = 15
let rr_fastest = 5

let views =
  [
    ("q1", S.Queries.query1_text);
    ("q2", S.Queries.query2_text);
    ("q3", S.Queries.query3_text);
  ]

(* Greedy's picks under the work-unit pricing it used before the time
   model (a = b = 1, t1 = -5000, t2 = 200000), on these databases: the
   "before" of the regret report. *)
let work_unit_pick view scale reduce =
  match (view, scale, reduce) with
  | "q1", 1.0, false -> Some 423
  | "q1", 1.0, true -> Some 511
  | "q2", 1.0, false -> Some 431
  | "q2", 1.0, true -> Some 511
  | "q3", 1.0, false -> Some 63
  | "q3", 1.0, true -> Some 111
  | "q1", 6.0, false -> Some 295
  | "q1", 6.0, true -> Some 479
  | "q2", 6.0, false -> Some 303
  | "q2", 6.0, true -> Some 495
  | "q3", 6.0, false -> Some 51
  | "q3", 6.0, true -> Some 91
  | _ -> None

(* --- the reference loop ----------------------------------------------------- *)

(* What perfbench/run.py does for its requests (REF_NS), done for these
   in-process runs: a fixed piece of work — integer arithmetic, reads at
   scattered places of a table larger than the per-core caches, and
   hashed stores — is timed beside each block of runs, and a time
   [t] measured while the loop took [r] ns is reported as
   [t *. ref_target_ns /. r], what it would read on a host where the loop
   takes [ref_target_ns].  Each call reads places no call has read for a
   while, so its caches are as cold as after a run. *)
let ref_target_ns = 1.0e6
let ref_table_size = 1 lsl 21 (* 16 MB of ints *)
let ref_probes_per_call = 20_000

let ref_table = lazy (Array.init ref_table_size Fun.id)

let ref_probes =
  lazy
    (let a = Array.init (ref_table_size / 7) (fun i -> i * 7) in
     let rng = Random.State.make [| 1 |] in
     for i = Array.length a - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let ref_slots = lazy (Array.make (1 lsl 14) 0)
let ref_next = ref 0

(* The loop's time on this host, right now, in ns. *)
let reference_loop () =
  let table = Lazy.force ref_table and probes = Lazy.force ref_probes in
  let start = !ref_next in
  ref_next := (start + ref_probes_per_call) mod (Array.length probes - ref_probes_per_call);
  let t0 = Obs.Clock.now_ns () in
  let s = ref 0 in
  for i = 0 to 199_999 do
    s := !s + (i * i)
  done;
  for k = start to start + ref_probes_per_call - 1 do
    s := !s + table.(probes.(k))
  done;
  (* hashed stores, in place: the loop allocates nothing, so no
     collection lands in its interval *)
  let slots = Lazy.force ref_slots in
  for i = 0 to 9_999 do
    slots.((i * 7919) land (Array.length slots - 1)) <- i
  done;
  ignore (Sys.opaque_identity !s);
  Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)

(* A time measured while the loop took [r] ns, as the reference host
   would read it. *)
let normalized ms r = ms *. ref_target_ns /. float_of_int r

(* --- the stamp ------------------------------------------------------------ *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text -> (
      let lines = String.split_on_char '\n' text in
      match
        List.find_opt (fun l -> String.starts_with ~prefix:"model name" l) lines
      with
      | Some l -> (
          match String.index_opt l ':' with
          | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
          | None -> "unknown")
      | None -> "unknown")
  | exception Sys_error _ -> "unknown"

let stamp () =
  Obs.Json.Obj
    [
      ("type", Obs.Json.String "stamp");
      ("experiment", Obs.Json.String "lattice-wallclock");
      ("machine", Obs.Json.String (cpu_model ()));
      ("os", Obs.Json.String Sys.os_type);
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("reps", Obs.Json.Int reps);
      ("rr_reps", Obs.Json.Int rr_reps);
      ("ref_target_ns", Obs.Json.Float ref_target_ns);
    ]

(* --- one lattice point ------------------------------------------------------ *)

let ms_since t0 = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0)

(* One untraced run: total ms (execute + tag), tagger ms, execution. *)
let run_once (p : S.Middleware.prepared) ~reduce plan =
  let t0 = Obs.Clock.now_ns () in
  let e = S.Middleware.execute ~reduce p plan in
  let t1 = Obs.Clock.now_ns () in
  ignore (S.Middleware.xml_string_of p e);
  (ms_since t0, ms_since t1, e)

let round3 x = Float.round (x *. 1000.0) /. 1000.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

type point = {
  view : string;
  scale : float;
  reduce : bool;
  mask : int;
  streams : int;
  ms : float;  (* median total *)
  tag_ms : float;  (* median tagger *)
  ref_ns : int;  (* the reference loop beside the runs: the mean of one before and one after *)
  norm_ms : float;  (* [ms] normalized by [ref_ns] *)
  work : int;
  tuples : int;
  bytes : int;
  est_ms : float;  (* the planner's predicted time *)
  est_work : float;
  nodes : Obs.Json.t;
      (* the median run's per-stream, per-node rows and ns (-1: replayed
         from another stream's run, not timed) *)
}

let measure_point (p : S.Middleware.prepared) oracle ~view ~scale ~reduce mask =
  let plan = S.Partition.of_mask p.S.Middleware.tree mask in
  let est_ms, est_work =
    List.fold_left
      (fun (m, w) (s : S.Sql_gen.stream) ->
        let e = R.Cost.ask oracle s.S.Sql_gen.query in
        (m +. R.Cost.time_cost ~a:1.0 ~b:1.0 e, w +. e.R.Cost.eval_cost))
      (0.0, 0.0)
      (S.Sql_gen.streams p.S.Middleware.db p.S.Middleware.tree plan
         { S.Sql_gen.style = S.Sql_gen.Outer_join;
           labels = (if reduce then Some p.S.Middleware.labels else None) })
  in
  ignore (run_once p ~reduce plan);
  let r0 = reference_loop () in
  let runs = List.init reps (fun _ -> run_once p ~reduce plan) in
  let ref_ns = (r0 + reference_loop ()) / 2 in
  let ms = median (List.map (fun (t, _, _) -> t) runs) in
  let _, _, e = List.find (fun (t, _, _) -> t = ms) runs in
  let ints a =
    Obs.Json.List (List.tl (Array.to_list (Array.map (fun x -> Obs.Json.Int x) a)))
  in
  let nodes =
    Obs.Json.List
      (List.map
         (fun (se : S.Middleware.stream_exec) ->
           let a = se.S.Middleware.se_stats.R.Executor.actuals in
           Obs.Json.Obj
             [
               ("wall_ms", Obs.Json.Float (round3 se.S.Middleware.se_wall_ms));
               ("rows", ints a.R.Physical.rows);
               ("ns", ints a.R.Physical.ns);
             ])
         e.S.Middleware.per_stream)
  in
  ( {
    view;
    scale;
    reduce;
    mask;
    streams = S.Partition.stream_count plan;
    ms;
    tag_ms = median (List.map (fun (_, t, _) -> t) runs);
    ref_ns;
    norm_ms = normalized ms ref_ns;
    work = e.S.Middleware.work;
    tuples = e.S.Middleware.tuples;
    bytes = e.S.Middleware.bytes;
    est_ms;
    est_work;
    nodes;
  },
    e )

let point_json pt =
  Obs.Json.Obj
    [
      ("type", Obs.Json.String "lattice");
      ("view", Obs.Json.String pt.view);
      ("scale", Obs.Json.Float pt.scale);
      ("mask", Obs.Json.Int pt.mask);
      ("reduce", Obs.Json.Bool pt.reduce);
      ("streams", Obs.Json.Int pt.streams);
      ("ms", Obs.Json.Float (round3 pt.ms));
      ("tag_ms", Obs.Json.Float (round3 pt.tag_ms));
      ("ref_ns", Obs.Json.Int pt.ref_ns);
      ("norm_ms", Obs.Json.Float (round3 pt.norm_ms));
      ("work", Obs.Json.Int pt.work);
      ("tuples", Obs.Json.Int pt.tuples);
      ("bytes", Obs.Json.Int pt.bytes);
      ("est_ms", Obs.Json.Float (round3 pt.est_ms));
      ("est_work", Obs.Json.Float (Float.round pt.est_work));
      ("nodes", pt.nodes);
    ]

(* --- statistics ------------------------------------------------------------ *)

(* Ranks from 1, ties averaged. *)
let ranks (xs : float array) =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare xs.(i) xs.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let pearson (x : float array) (y : float array) =
  let n = float_of_int (Array.length x) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. n in
  let mx = mean x and my = mean y in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i xi ->
      let dx = xi -. mx and dy = y.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    x;
  if !sxx = 0.0 || !syy = 0.0 then nan else !sxy /. sqrt (!sxx *. !syy)

let spearman x y = pearson (ranks x) (ranks y)

(* Kendall's tau-b. *)
let kendall (x : float array) (y : float array) =
  let n = Array.length x in
  let c = ref 0 and d = ref 0 and tx = ref 0 and ty = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let sx = compare x.(i) x.(j) and sy = compare y.(i) y.(j) in
      if sx = 0 && sy = 0 then ()
      else if sx = 0 then incr tx
      else if sy = 0 then incr ty
      else if sx = sy then incr c
      else incr d
    done
  done;
  let c = float_of_int !c and d = float_of_int !d in
  let tx = float_of_int !tx and ty = float_of_int !ty in
  (c -. d) /. sqrt ((c +. d +. tx) *. (c +. d +. ty))

(* --- non-negative least squares ---------------------------------------------- *)

(* Normal equations accumulated observation by observation, so the fit
   keeps no observation: X'X, X'y, and y's sums for R^2. *)
type normal = {
  xtx : float array array;
  xty : float array;
  mutable n : int;
  mutable sy : float;
  mutable syy : float;
}

let normal k =
  { xtx = Array.make_matrix k k 0.0; xty = Array.make k 0.0; n = 0; sy = 0.0; syy = 0.0 }

let observe nq (x : float array) y =
  let k = Array.length x in
  for i = 0 to k - 1 do
    nq.xty.(i) <- nq.xty.(i) +. (x.(i) *. y);
    for j = 0 to k - 1 do
      nq.xtx.(i).(j) <- nq.xtx.(i).(j) +. (x.(i) *. x.(j))
    done
  done;
  nq.n <- nq.n + 1;
  nq.sy <- nq.sy +. y;
  nq.syy <- nq.syy +. (y *. y)

(* Solve a.(s) beta = b.(s) on the index subset [s] by Gaussian
   elimination with partial pivoting; 0 outside [s]. *)
let solve_subset a b s k =
  let s = Array.of_list s in
  let m = Array.length s in
  let g = Array.init m (fun i -> Array.init (m + 1) (fun j ->
      if j = m then b.(s.(i)) else a.(s.(i)).(s.(j))))
  in
  for c = 0 to m - 1 do
    let piv = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs g.(r).(c) > Float.abs g.(!piv).(c) then piv := r
    done;
    let t = g.(c) in
    g.(c) <- g.(!piv);
    g.(!piv) <- t;
    if g.(c).(c) <> 0.0 then
      for r = 0 to m - 1 do
        if r <> c then begin
          let f = g.(r).(c) /. g.(c).(c) in
          for j = c to m do
            g.(r).(j) <- g.(r).(j) -. (f *. g.(c).(j))
          done
        end
      done
  done;
  let beta = Array.make k 0.0 in
  Array.iteri
    (fun i si -> beta.(si) <- (if g.(i).(i) = 0.0 then 0.0 else g.(i).(m) /. g.(i).(i)))
    s;
  beta

(* Lawson-Hanson-style active set on the normal equations, with the
   columns scaled to unit diagonal: the least-squares weights subject to
   every weight >= 0, and the fit's R^2. *)
let nnls nq =
  let k = Array.length nq.xty in
  let d = Array.init k (fun i -> if nq.xtx.(i).(i) > 0.0 then sqrt nq.xtx.(i).(i) else 1.0) in
  let a = Array.init k (fun i -> Array.init k (fun j -> nq.xtx.(i).(j) /. (d.(i) *. d.(j)))) in
  let b = Array.init k (fun i -> nq.xty.(i) /. d.(i)) in
  let passive = ref (List.filter (fun i -> nq.xtx.(i).(i) > 0.0) (List.init k Fun.id)) in
  let beta = ref (Array.make k 0.0) in
  let rec loop iter =
    let x = solve_subset a b !passive k in
    match List.filter (fun i -> x.(i) < 0.0) !passive with
    | _ :: _ as neg when iter < 100 ->
        passive := List.filter (fun i -> not (List.mem i neg)) !passive;
        loop (iter + 1)
    | _ ->
        beta := Array.map (fun v -> Float.max 0.0 v) x;
        (* KKT: re-admit the most promising excluded weight *)
        let grad i =
          b.(i) -. Array.fold_left ( +. ) 0.0 (Array.mapi (fun j bj -> a.(i).(j) *. bj) !beta)
        in
        let out =
          List.filter
            (fun i -> (not (List.mem i !passive)) && nq.xtx.(i).(i) > 0.0 && grad i > 1e-9)
            (List.init k Fun.id)
        in
        (match out with
        | [] -> ()
        | _ when iter >= 100 -> ()
        | i :: rest ->
            let best = List.fold_left (fun m j -> if grad j > grad m then j else m) i rest in
            passive := best :: !passive;
            loop (iter + 1))
  in
  loop 0;
  let w = Array.mapi (fun i v -> v /. d.(i)) !beta in
  (* SSE = y'y - 2 w'X'y + w'X'Xw *)
  let wxty = ref 0.0 and wxxw = ref 0.0 in
  for i = 0 to k - 1 do
    wxty := !wxty +. (w.(i) *. nq.xty.(i));
    for j = 0 to k - 1 do
      wxxw := !wxxw +. (w.(i) *. nq.xtx.(i).(j) *. w.(j))
    done
  done;
  let sse = nq.syy -. (2.0 *. !wxty) +. !wxxw in
  let n = float_of_int nq.n in
  let sst = nq.syy -. (nq.sy *. nq.sy /. n) in
  (w, 1.0 -. (sse /. sst))

(* --- the fit's observations ---------------------------------------------------- *)

let op_features = [| "scan_row"; "build_row"; "probe"; "test"; "emit_row"; "emit_byte"; "sort_row" |]
let outer_features = [| "stream"; "tag_tuple"; "tag_byte" |]

let vec_of (c : R.Cost.counts) =
  R.Cost.[| c.scanned; c.built; c.probed; c.tested; c.emitted; c.bytes; c.sorted |]

(* Feed one measured run to the fits: every node's counts against its
   own measured ns (a projection over a join counts, and is timed, in
   the join), and what the nodes leave of the run's total against its
   streams, tuples and bytes. *)
let observe_run stats ~ops ~outer (pt : point) (e : S.Middleware.execution) =
  let nodes_ns = ref 0 in
  List.iter
    (fun (se : S.Middleware.stream_exec) ->
      let plan = se.S.Middleware.se_plan in
      let counts = R.Cost.counts stats plan in
      let ns = se.S.Middleware.se_stats.R.Executor.actuals.R.Physical.ns in
      R.Physical.iter
        (fun n ->
          let id = n.R.Physical.id in
          if ns.(id) >= 0 then begin
            nodes_ns := !nodes_ns + ns.(id);
            if counts.(id) <> R.Cost.no_counts then
              observe ops (vec_of counts.(id)) (float_of_int ns.(id))
          end)
        plan)
    e.S.Middleware.per_stream;
  observe outer
    [| float_of_int pt.streams; float_of_int pt.tuples; float_of_int pt.bytes |]
    ((pt.ms *. 1e6) -. float_of_int !nodes_ns)

(* --- the experiment ------------------------------------------------------------ *)

let masks_by_time pts =
  List.map (fun pt -> pt.mask) (List.sort (fun a b -> compare a.norm_ms b.norm_ms) pts)

(* Greedy's pick, the fastest masks of the sweep and the work-unit pick,
   timed round-robin [rr_reps] times each: the minimum of hundreds of
   noisy medians is biased low, so regret is read off this re-measure,
   not the sweep.  The reference loop runs before each round and after
   the last; a run is normalized by the mean of the two around its
   round. *)
let regret oc (p : S.Middleware.prepared) ~view ~scale ~reduce pts =
  let greedy = S.Partition.to_mask (S.Middleware.partition_of ~reduce p S.Middleware.Greedy) in
  let prior = work_unit_pick view scale reduce in
  let fastest = List.filteri (fun i _ -> i < rr_fastest) (masks_by_time pts) in
  let cands =
    List.sort_uniq compare (greedy :: (Option.to_list prior @ fastest))
  in
  let plans = List.map (fun m -> (m, S.Partition.of_mask p.S.Middleware.tree m)) cands in
  List.iter (fun (_, plan) -> ignore (run_once p ~reduce plan)) plans;
  let times = Hashtbl.create 8 and refs = ref [ reference_loop () ] in
  for _ = 1 to rr_reps do
    let round = List.map (fun (m, plan) -> let t, _, _ = run_once p ~reduce plan in (m, t)) plans in
    let r = reference_loop () in
    let around = (r + List.hd !refs) / 2 in
    refs := r :: !refs;
    List.iter (fun (m, t) -> Hashtbl.add times m (normalized t around)) round
  done;
  let med m = median (Hashtbl.find_all times m) in
  let best = List.fold_left (fun b m -> if med m < med b then m else b) greedy cands in
  let greedy_regret = med greedy /. med best in
  Printf.printf "  %-3s scale %g %-9s greedy %3d %7.2f ms, best %3d %7.2f ms: regret %.2fx%s\n%!"
    view scale
    (if reduce then "reduced" else "unreduced")
    greedy (med greedy) best (med best) greedy_regret
    (match prior with
    | Some m -> Printf.sprintf "; work-unit pick %3d %7.2f ms (%.2fx)" m (med m) (med m /. med best)
    | None -> "");
  let fields =
    [
      ("type", Obs.Json.String "regret");
      ("view", Obs.Json.String view);
      ("scale", Obs.Json.Float scale);
      ("reduce", Obs.Json.Bool reduce);
      ("greedy", Obs.Json.Int greedy);
      ("greedy_ms", Obs.Json.Float (round3 (med greedy)));
      ("best", Obs.Json.Int best);
      ("best_ms", Obs.Json.Float (round3 (med best)));
      ("regret", Obs.Json.Float (round3 greedy_regret));
      ("ref_ns", Obs.Json.Int (int_of_float (median (List.map float_of_int !refs))));
      ( "candidates",
        Obs.Json.List
          (List.map
             (fun m ->
               Obs.Json.Obj [ ("mask", Obs.Json.Int m); ("ms", Obs.Json.Float (round3 (med m))) ])
             cands) );
    ]
    @
    match prior with
    | Some m ->
        [
          ("work_unit_pick", Obs.Json.Int m);
          ("work_unit_ms", Obs.Json.Float (round3 (med m)));
          ("work_unit_regret", Obs.Json.Float (round3 (med m /. med best)));
        ]
    | None -> []
  in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj fields));
  output_char oc '\n'

let correlations ~view ~scale ~reduce pts =
  let arr f = Array.of_list (List.map f pts) in
  let est = arr (fun pt -> pt.est_ms) and ew = arr (fun pt -> pt.est_work) in
  let work = arr (fun pt -> float_of_int pt.work) and time = arr (fun pt -> pt.norm_ms) in
  let best = List.fold_left (fun b pt -> Float.min b pt.norm_ms) infinity pts in
  let at mask = (List.find (fun pt -> pt.mask = mask) pts).norm_ms in
  let all_edges = List.fold_left (fun m pt -> max m pt.mask) 0 pts in
  Printf.printf
    "  %-3s %3g %-9s %5.2f %5.2f  %5.2f %5.2f  %5.2f %5.2f  %5.2f %5.2f  %7.2f %6.2fx %6.2fx\n%!"
    view scale
    (if reduce then "reduced" else "unreduced")
    (spearman est time) (kendall est time) (spearman ew time) (kendall ew time)
    (spearman work time) (kendall work time) (spearman est work) (kendall est work)
    best (at all_edges /. best) (at 0 /. best)

let run () =
  Bench_common.print_header
    "Lattice wall-clock: measured Figs. 13/14, greedy's regret and the time-model fit";
  Printf.printf "%s, %d cores, OCaml %s; median of %d untraced runs after a warm-up\n"
    (cpu_model ()) (Domain.recommended_domain_count ()) Sys.ocaml_version reps;
  Printf.printf
    "times normalized to a host where the reference loop takes %.1f ms (here: %.2f ms)\n%!"
    (ref_target_ns /. 1e6)
    (Obs.Clock.ns_to_ms (Int64.of_int (reference_loop ())));
  let oc = open_out jsonl_path in
  output_string oc (Obs.Json.to_string (stamp ()));
  output_char oc '\n';
  let ops = normal (Array.length op_features) and outer = normal (Array.length outer_features) in
  let all_points = ref [] in
  Obs.Control.with_enabled false (fun () ->
      List.iter
        (fun scale ->
          let db = Tpch.Gen.generate (Tpch.Gen.config scale) in
          let stats = R.Stats.analyze db in
          let groups =
            List.concat_map
              (fun (view, text) ->
                let p = S.Middleware.prepare_text db text in
                let p = { p with S.Middleware.stats = Lazy.from_val stats } in
                List.map
                  (fun reduce ->
                    let oracle = R.Cost.oracle_with_stats db stats in
                    let pts =
                      List.map
                        (fun mask ->
                          let pt, e = measure_point p oracle ~view ~scale ~reduce mask in
                          observe_run stats ~ops ~outer pt e;
                          output_string oc (Obs.Json.to_string (point_json pt));
                          output_char oc '\n';
                          pt)
                        (S.Partition.all_masks p.S.Middleware.tree)
                    in
                    all_points := pts @ !all_points;
                    (p, view, reduce, pts))
                  [ false; true ])
              views
          in
          Printf.printf
            "\nScale %g: rank correlations with measured time (Spearman, Kendall tau-b)\n"
            scale;
          Printf.printf "  %-3s %3s %-9s %11s  %11s  %11s  %11s  %7s %7s %7s\n" "" "" ""
            "est ms:time" "est wu:time" "work:time" "est ms:work" "best ms" "unif" "part";
          List.iter (fun (_, view, reduce, pts) -> correlations ~view ~scale ~reduce pts) groups;
          Printf.printf "\nScale %g: greedy's regret, round-robin re-measure (%d runs each)\n"
            scale rr_reps;
          List.iter (fun (p, view, reduce, pts) -> regret oc p ~view ~scale ~reduce pts) groups)
        scales);
  close_out oc;
  let print_fit title names (w, r2) =
    Printf.printf "\n%s (R^2 %.3f, %s)\n" title r2 "ns per unit";
    Array.iteri (fun i name -> Printf.printf "  %-10s %10.3f\n" name w.(i)) names
  in
  let opw = nnls ops and outw = nnls outer in
  print_fit "Fit: per-operator time on the oracle's counts" op_features opw;
  print_fit "Fit: per-run time outside the operators" outer_features outw;
  (* how well the committed model predicts whole runs *)
  let pts = Array.of_list !all_points in
  let predicted = Array.map (fun pt -> pt.est_ms) pts and measured = Array.map (fun pt -> pt.ms) pts in
  Printf.printf
    "\nCommitted model vs measured run time over %d runs: Pearson %.3f, Spearman %.3f\n"
    (Array.length pts) (pearson predicted measured) (spearman predicted measured);
  Printf.printf "Wrote %s\n" jsonl_path
