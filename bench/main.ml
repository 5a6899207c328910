(* Experiment harness entry point.

   With no arguments: run every experiment (each table and figure of the
   paper) and the bechamel micro-benchmarks.  With --experiment <id>:
   run one of table1 | sec2 | fig13 | fig14 | fig15 | fig18 | ranks |
   requests | ablation | extra | pruning | resilience | micro |
   lattice-wallclock (measured Figs. 13/14 and the time-model fit; it
   writes BENCH_lattice_wallclock.jsonl in the working directory, and
   takes about 17 minutes on 2 vCPUs; a run of every experiment
   includes it).
   With --obs-jsonl <file>: trace every
   experiment through lib/obs and append per-experiment JSONL records
   (spans + events + profile, tagged with the experiment id) to
   <file>.  With --trace-chrome <prefix>: also write one Chrome
   trace-event file <prefix>-<experiment>.json per experiment.

   Baseline gate (see bench/baseline.ml):
     --write-baseline [FILE]   measure the deterministic matrix and write it
     --check-baseline [FILE]   re-measure, print the delta table, exit
                               non-zero on drift outside tolerance
   FILE defaults to BENCH_silkroute.json at the repo root. *)

let experiments =
  [
    ("table1", Experiments.table1);
    ("sec2", Experiments.sec2);
    ("fig13", Experiments.fig13);
    ("fig14", Experiments.fig14);
    ("fig15", Experiments.fig15);
    ("fig18", Experiments.fig18);
    ("ranks", Experiments.ranks);
    ("requests", Experiments.requests);
    ("ablation", Experiments.ablation);
    ("extra", Experiments.extra);
    ("pruning", Experiments.pruning);
    ("calibration", Experiments.calibration);
    ("resilience", Experiments.resilience);
    ("scaling", Experiments.scaling);
    ("lattice-wallclock", Wallclock.run);
    ("serving", Serving.run);
    ("micro", Micro.run);
  ]

let usage () =
  Printf.printf
    "usage: main.exe [--experiment <id>] [--obs-jsonl <file>] [--trace-chrome <prefix>]\n\
    \       main.exe --write-baseline [file] | --check-baseline [file]\n\
    \  ids: %s | all\n"
    (String.concat " | " (List.map fst experiments));
  exit 1

let run_all () =
  List.iter (fun (id, f) -> Bench_common.record_experiment id f) experiments

type mode = Run | Write_baseline of string | Check_baseline of string

let () =
  let rec parse id jsonl chrome mode = function
    | [] -> (id, jsonl, chrome, mode)
    | "--experiment" :: x :: rest -> parse (Some x) jsonl chrome mode rest
    | "--obs-jsonl" :: f :: rest -> parse id (Some f) chrome mode rest
    | "--trace-chrome" :: f :: rest -> parse id jsonl (Some f) mode rest
    | "--write-baseline" :: f :: rest when String.length f > 0 && f.[0] <> '-'
      ->
        parse id jsonl chrome (Write_baseline f) rest
    | "--write-baseline" :: rest ->
        parse id jsonl chrome (Write_baseline Baseline.default_path) rest
    | "--check-baseline" :: f :: rest when String.length f > 0 && f.[0] <> '-'
      ->
        parse id jsonl chrome (Check_baseline f) rest
    | "--check-baseline" :: rest ->
        parse id jsonl chrome (Check_baseline Baseline.default_path) rest
    | [ x ] when id = None && String.length x > 0 && x.[0] <> '-' ->
        (Some x, jsonl, chrome, mode)
    | _ -> usage ()
  in
  let id, jsonl, chrome, mode =
    parse None None None Run (List.tl (Array.to_list Sys.argv))
  in
  match mode with
  | Write_baseline path -> Baseline.write path
  | Check_baseline path -> if not (Baseline.check path) then exit 1
  | Run ->
      (match jsonl with Some f -> Bench_common.enable_obs f | None -> ());
      (match chrome with Some f -> Bench_common.enable_chrome f | None -> ());
      (match id with
      | None ->
          Printf.printf
            "SilkRoute experiment harness — reproducing 'Efficient Evaluation of\n\
             XML Middle-ware Queries' (SIGMOD 2001). Simulated times are\n\
             deterministic (engine work units / %.0f per ms); see EXPERIMENTS.md.\n"
            Bench_common.work_per_ms;
          run_all ()
      | Some "all" -> run_all ()
      | Some id -> (
          match List.assoc_opt id experiments with
          | Some f -> Bench_common.record_experiment id f
          | None -> usage ()));
      Bench_common.finish_obs ()
