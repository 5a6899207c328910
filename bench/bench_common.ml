(* Shared infrastructure for the experiment harness: configurations,
   simulated-time calibration, sweep machinery, ASCII rendering. *)

module R = Relational
module S = Silkroute

(* Experimental configurations (paper Table 1).  The paper used a 1 MB
   database (Config A, exhaustive 512-plan runs) and a 100 MB database
   (Config B, greedy-planner runs).  We keep the same A:B shape at
   laptop-friendly absolute sizes. *)
type config = { cfg_name : string; scale : float; description : string }

let config_a = { cfg_name = "A'"; scale = 1.0; description = "small (exhaustive 512-plan sweeps)" }
let config_b = { cfg_name = "B'"; scale = 6.0; description = "large (greedy-planner runs)" }

(* Simulated milliseconds: the engine's deterministic work units divided
   by a fixed constant, so experiment output is reproducible across
   machines.  Wall-clock is also measured and reported in summaries. *)
let work_per_ms = 50.0

let sim_query_ms work = float_of_int work /. work_per_ms
let sim_total_ms work transfer = sim_query_ms work +. transfer

type measurement = {
  mask : int;
  streams : int;
  query_ms : float; (* simulated query-only time *)
  total_ms : float; (* simulated query + transfer *)
  wall_ms : float;
  timed_out : bool;
}

(* Execute one plan and measure. *)
let measure ?(style = S.Sql_gen.Outer_join) ?(reduce = false) ?(budget = 0)
    (p : S.Middleware.prepared) mask =
  let plan = S.Partition.of_mask p.S.Middleware.tree mask in
  let streams = S.Partition.stream_count plan in
  try
    let backend = R.Backend.create ~budget p.S.Middleware.db in
    let e = S.Middleware.execute ~style ~reduce ~backend p plan in
    {
      mask;
      streams;
      query_ms = sim_query_ms e.S.Middleware.work;
      total_ms = sim_total_ms e.S.Middleware.work e.S.Middleware.transfer_ms;
      wall_ms = e.S.Middleware.query_wall_ms;
      timed_out = false;
    }
  with S.Middleware.Plan_timeout _ ->
    { mask; streams; query_ms = infinity; total_ms = infinity; wall_ms = infinity;
      timed_out = true }

let prepare cfg text =
  let db = Tpch.Gen.generate (Tpch.Gen.config cfg.scale) in
  (db, S.Middleware.prepare_text db text)

(* --- observability ----------------------------------------------------- *)

(* With --obs-jsonl FILE the harness traces every experiment and appends
   one batch of JSONL records per experiment (tagged with the experiment
   id), so BENCH_*.json trajectories can carry stage-level breakdowns
   and two runs can be diffed span by span. *)
let obs_channel : out_channel option ref = ref None

(* With --trace-chrome PREFIX each experiment additionally writes a
   Chrome trace-event file PREFIX-<experiment>.json (one Perfetto tab
   per experiment). *)
let chrome_prefix : string option ref = ref None

let enable_obs path =
  Obs.Control.set_enabled true;
  obs_channel := Some (open_out path)

let enable_chrome prefix =
  Obs.Control.set_enabled true;
  chrome_prefix := Some prefix

let record_experiment name f =
  if !obs_channel = None && !chrome_prefix = None then f ()
  else begin
    Obs.Span.reset ();
    Obs.Event.reset ();
    Obs.Span.with_span "experiment"
      ~attrs:[ Obs.Attr.string "name" name ]
      f;
    (match !obs_channel with
    | Some oc ->
        Obs.Jsonl.write_channel ~experiment:name oc;
        flush oc
    | None -> ());
    match !chrome_prefix with
    | Some prefix -> Obs.Chrometrace.write_file (prefix ^ "-" ^ name ^ ".json")
    | None -> ()
  end

let finish_obs () =
  match !obs_channel with
  | None -> ()
  | Some oc ->
      close_out oc;
      obs_channel := None

let print_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_config db cfg =
  Printf.printf
    "Configuration %s: scale=%.1f  (%d rows, %d KB)  — %s\n" cfg.cfg_name
    cfg.scale (R.Database.total_rows db)
    (R.Database.total_bytes db / 1024)
    cfg.description

(* Group measurements by stream count and print a figure-style summary:
   min/median/max per x-axis position, like the scatter plots of
   Figs. 13-15. *)
let print_figure ~caption (ms : measurement list) ~value =
  Printf.printf "\n%s\n" caption;
  Printf.printf "%8s %7s %10s %10s %10s\n" "streams" "plans" "best" "median" "worst";
  let finite = List.filter (fun m -> not m.timed_out) ms in
  let timed_out = List.length ms - List.length finite in
  for sc = 1 to 10 do
    let group = List.filter (fun m -> m.streams = sc) finite in
    if group <> [] then begin
      let values = List.sort compare (List.map value group) in
      let n = List.length values in
      let best = List.nth values 0 in
      let median = List.nth values (n / 2) in
      let worst = List.nth values (n - 1) in
      Printf.printf "%8d %7d %10.1f %10.1f %10.1f\n" sc n best median worst
    end
  done;
  if timed_out > 0 then Printf.printf "(%d plans timed out)\n" timed_out

let best_of ms ~value =
  List.fold_left
    (fun acc m -> if m.timed_out then acc else min acc (value m))
    infinity ms

(* k-th best value *)
let kth_best ms ~value k =
  let vs =
    List.filter (fun m -> not m.timed_out) ms |> List.map value |> List.sort compare
  in
  if List.length vs >= k then List.nth vs (k - 1) else infinity

let ratio a b = if b > 0.0 && b < infinity then a /. b else nan
