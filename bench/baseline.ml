(* Committed performance baseline and regression gate.

   Every baseline experiment is a fixed point of the pipeline — a paper
   query under a named plan strategy — measured in *deterministic*
   quantities only: engine work units, rows, bytes, stream count, and
   the modeled transfer time.  No wall-clock, so the record reproduces
   bit-for-bit on any machine (generator seed and scale are pinned and
   recorded in the file's meta line).

   `bench --write-baseline` runs the matrix and writes one JSON object
   per line to BENCH_silkroute.json (diff-friendly: stable experiment
   order, integers stay integers); `bench --check-baseline` re-runs the
   matrix, prints a per-experiment delta table, and exits non-zero when
   any metric drifts outside tolerance (work/transfer ±5% by default,
   rows/streams/bytes exact).  tools/ci.sh runs the check, so a PR that
   silently inflates executor work or tagger transfer fails local CI
   even though tier-1 tests (correctness only) would pass. *)

module R = Relational
module S = Silkroute

let default_path = "BENCH_silkroute.json"
let version = 1
let scale = 1.0
let seed = 42
let work_tolerance = 0.05
let transfer_tolerance = 0.05

type record = {
  experiment : string;
  streams : int;
  work : int;
  rows : int;
  bytes : int;
  transfer_ms : float;
}

(* --- the measurement matrix -------------------------------------------- *)

let run_all () =
  let db = Tpch.Gen.generate (Tpch.Gen.config ~seed:(Int64.of_int seed) scale) in
  let queries =
    [
      ("q1", S.Queries.query1_text);
      ("q2", S.Queries.query2_text);
      ("q3", S.Queries.query3_text);
    ]
  in
  List.concat_map
    (fun (qname, text) ->
      let p = S.Middleware.prepare_text db text in
      let record name (e : S.Middleware.execution) =
        {
          experiment = Printf.sprintf "%s:%s" qname name;
          streams = List.length e.S.Middleware.per_stream;
          work = e.S.Middleware.work;
          rows = e.S.Middleware.tuples;
          bytes = e.S.Middleware.bytes;
          transfer_ms = e.S.Middleware.transfer_ms;
        }
      in
      (* every strategy is planned for the reduction it runs with, so
         greedy is planned once per reduction *)
      let materialized =
        List.concat_map
          (fun (pname, strategy) ->
            List.map
              (fun reduce ->
                let plan = S.Middleware.partition_of ~reduce p strategy in
                record
                  (Printf.sprintf "%s:%s" pname
                     (if reduce then "reduced" else "plain"))
                  (S.Middleware.execute ~reduce p plan))
              [ false; true ])
          S.Middleware.
            [
              ("unified", Unified);
              ("partitioned", Fully_partitioned);
              ("greedy", Greedy);
            ]
      in
      (* one streaming record per query: the reduced greedy plan through
         the cursor path, consumed to exercise the heap-merge tagger too *)
      let streaming =
        let plan = S.Middleware.partition_of ~reduce:true p S.Middleware.Greedy in
        let e = S.Middleware.execute ~reduce:true ~spool:true p plan in
        let r = record "greedy:streaming" e in
        ignore (S.Middleware.xml_string_of p e);
        [ r ]
      in
      materialized @ streaming)
    queries

(* --- file format -------------------------------------------------------- *)

let meta_json =
  Obs.Json.Obj
    [
      ("type", Obs.Json.String "baseline");
      ("experiment", Obs.Json.String "_meta");
      ("version", Obs.Json.Int version);
      ("scale", Obs.Json.Float scale);
      ("seed", Obs.Json.Int seed);
      ("work_per_ms", Obs.Json.Float Bench_common.work_per_ms);
    ]

let json_of r =
  Obs.Json.Obj
    [
      ("type", Obs.Json.String "baseline");
      ("experiment", Obs.Json.String r.experiment);
      ("streams", Obs.Json.Int r.streams);
      ("work", Obs.Json.Int r.work);
      ("rows", Obs.Json.Int r.rows);
      ("bytes", Obs.Json.Int r.bytes);
      ("transfer_ms", Obs.Json.Float r.transfer_ms);
    ]

let record_of_json line_no j =
  let bad what =
    Printf.eprintf "baseline: line %d: %s\n" line_no what;
    exit 2
  in
  let str k =
    match Obs.Json.member k j with
    | Some (Obs.Json.String s) -> s
    | _ -> bad (Printf.sprintf "missing string %S" k)
  in
  let int k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Int n) -> n
    | _ -> bad (Printf.sprintf "missing int %S" k)
  in
  let flt k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Float x) -> x
    | Some (Obs.Json.Int n) -> float_of_int n
    | _ -> bad (Printf.sprintf "missing number %S" k)
  in
  if str "type" <> "baseline" then bad "not a baseline record";
  let experiment = str "experiment" in
  if experiment = "_meta" then None
  else
    Some
      {
        experiment;
        streams = int "streams";
        work = int "work";
        rows = int "rows";
        bytes = int "bytes";
        transfer_ms = flt "transfer_ms";
      }

let load path =
  let ic = open_in path in
  let records = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then
         match record_of_json !line_no (Obs.Json.parse line) with
         | Some r -> records := r :: !records
         | None -> ()
         | exception Obs.Json.Parse_error msg ->
             Printf.eprintf "baseline: %s: line %d: %s\n" path !line_no msg;
             exit 2
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !records

let write path =
  let records = run_all () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string meta_json);
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (Obs.Json.to_string (json_of r));
          output_char oc '\n')
        records);
  Printf.printf "baseline: wrote %d experiment record(s) to %s\n"
    (List.length records) path

(* --- the gate ----------------------------------------------------------- *)

let rel_delta now base =
  if base = 0.0 then if now = 0.0 then 0.0 else infinity
  else (now -. base) /. base

(* Compare one experiment; returns the per-metric verdicts joined into a
   status cell, or "ok". *)
let compare_records (base : record) (now : record) =
  let problems = ref [] in
  let flag name = problems := name :: !problems in
  if now.streams <> base.streams then flag "streams";
  if now.rows <> base.rows then flag "rows";
  if now.bytes <> base.bytes then flag "bytes";
  let dw = rel_delta (float_of_int now.work) (float_of_int base.work) in
  if Float.abs dw > work_tolerance then flag "work";
  let dt = rel_delta now.transfer_ms base.transfer_ms in
  if Float.abs dt > transfer_tolerance then flag "transfer";
  (List.rev !problems, dw)

let check path =
  let base = load path in
  let now = run_all () in
  Printf.printf
    "BASELINE CHECK vs %s — tolerance: work/transfer ±%.0f%%, \
     rows/streams/bytes exact\n"
    path (100.0 *. work_tolerance);
  Printf.printf "%-28s %8s %12s %12s %8s %10s %8s  %s\n" "experiment"
    "streams" "work(base)" "work(now)" "Δwork%" "rows" "bytes" "status";
  let failures = ref 0 in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (b : record) ->
      Hashtbl.replace seen b.experiment ();
      match List.find_opt (fun (n : record) -> n.experiment = b.experiment) now with
      | None ->
          incr failures;
          Printf.printf "%-28s %8d %12d %12s %8s %10d %8d  %s\n" b.experiment
            b.streams b.work "-" "-" b.rows b.bytes "MISSING from this run"
      | Some n ->
          let problems, dw = compare_records b n in
          let status =
            if problems = [] then "ok"
            else "REGRESSION: " ^ String.concat "," problems
          in
          if problems <> [] then incr failures;
          let streams_cell =
            if n.streams = b.streams then string_of_int b.streams
            else Printf.sprintf "%d->%d" b.streams n.streams
          in
          Printf.printf "%-28s %8s %12d %12d %+7.1f%% %10d %8d  %s\n"
            b.experiment streams_cell b.work n.work (100.0 *. dw) n.rows
            n.bytes status)
    base;
  List.iter
    (fun (n : record) ->
      if not (Hashtbl.mem seen n.experiment) then begin
        incr failures;
        Printf.printf "%-28s %8d %12s %12d %8s %10d %8d  %s\n" n.experiment
          n.streams "-" n.work "-" n.rows n.bytes
          "NEW (not in baseline)"
      end)
    now;
  if !failures > 0 then begin
    Printf.printf
      "\nbaseline: %d experiment(s) drifted — if intentional, re-run \
       `bench --write-baseline` and commit %s\n"
      !failures path;
    false
  end
  else begin
    Printf.printf "\nbaseline: all %d experiment(s) within tolerance\n"
      (List.length base);
    true
  end
