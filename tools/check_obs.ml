(* One checker for every telemetry artifact, holding each to its
   producer's contract.  Exit status 0 on success, 1 with a diagnostic.

   check_obs jsonl FILE — --trace-json, bench --obs-jsonl and
     BENCH_silkroute.json: typed records (span | event | profile |
     baseline), at least one; spans rebased (first start 0 per
     experiment tag), in start order, with unique ids and every parent
     logged first, and every exec.* span naming its plan node by an
     int "id" attr >= 1; events in emit order with a known level, a name and
     attrs; profiles with calls >= 1, 0 <= self_ms <= total_ms and
     non-negative minor_words and major_words, and no compactions;
     baselines with non-negative streams/work/rows/bytes.
   check_obs chrome FILE [NAME...] — --trace-chrome: a non-empty
     "traceEvents" array of phased objects holding a complete ("X")
     event for every pipeline stage of Obs.Stage and every extra NAME.
   check_obs telemetry SCRAPE1 SCRAPE2 SLOWLOG THRESHOLD_MS — two
     scrapes of a live server around a workload pass, and its slow log:
     both scrapes parse, the dashboard's series are present, counters
     are monotone, uptime advances, hit
     ratios lie in [0,1], quantiles are ordered; one silkroute_stage_ms
     summary per stage of Obs.Stage, with ordered quantiles wherever the
     workload reached the stage, a service stage counted once per
     request, and pipeline stages summing to at most the requests'
     time; one silkroute_events_total per event level; every slow
     record is at or above the threshold, has a trace id, a "gc" object
     of exactly promoted_words, major_words, minor_collections and
     major_collections, each non-negative, and one non-negative
     "stages" entry per stage whose pipeline stages sum to at most its
     "ms".
   check_obs lattice FILE — bench --experiment lattice-wallclock's
     BENCH_lattice_wallclock.jsonl: a stamp first (machine, nproc,
     OCaml version, the reference loop's target time); one lattice
     record per (view, scale, mask, reduce), each (view, scale, reduce)
     covering masks 0 .. 2^k - 1; non-negative times, counters and
     per-node rows, a positive reference-loop time beside the runs and
     the time normalized by it, and per-node ns that are non-negative or
     -1 (a subtree replayed from another stream's run, not timed);
     regret records with non-negative times, a positive reference-loop
     time and a regret of at least 1. *)

(* --- shared helpers ------------------------------------------------------ *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("check_obs: " ^ msg);
      exit 1)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  List.filter
    (fun l -> String.trim l <> "")
    (String.split_on_char '\n' (read_file path))

let parse where text =
  try Obs.Json.parse text
  with Obs.Json.Parse_error msg -> fail "%s: %s" where msg

let str key j =
  match Obs.Json.member key j with Some (Obs.Json.String s) -> Some s | _ -> None

let int key j =
  match Obs.Json.member key j with Some (Obs.Json.Int n) -> Some n | _ -> None

let num key j =
  match Obs.Json.member key j with
  | Some (Obs.Json.Float x) -> Some x
  | Some (Obs.Json.Int n) -> Some (float_of_int n)
  | _ -> None

let need where what = function
  | Some v -> v
  | None -> fail "%s: missing %s" where what

let nonneg_int where key j =
  let n = need where ("int " ^ key) (int key j) in
  if n < 0 then fail "%s: %S is negative (%d)" where key n;
  n

let nonneg_num where key j =
  let x = need where ("number " ^ key) (num key j) in
  if not (x >= 0.0) then fail "%s: %S is negative (%g)" where key x;
  x

(* --- jsonl --------------------------------------------------------------- *)

(* per experiment tag ("" when untagged): last span start, span ids
   seen, last event timestamp *)
let last_start : (string, int) Hashtbl.t = Hashtbl.create 4
let seen_ids : (string * int, unit) Hashtbl.t = Hashtbl.create 64
let last_event_ts : (string, int) Hashtbl.t = Hashtbl.create 4

let check_span where j =
  let exp = Option.value ~default:"" (str "experiment" j) in
  let start = need where "int start_ns" (int "start_ns" j) in
  (match Hashtbl.find_opt last_start exp with
  | None when start <> 0 ->
      fail "%s: first start_ns of experiment %S is %d, want 0 (rebased)" where
        exp start
  | Some prev when start < prev ->
      fail "%s: start_ns %d < previous %d (not in start order)" where start
        prev
  | _ -> ());
  Hashtbl.replace last_start exp start;
  let id = nonneg_int where "id" j in
  if Hashtbl.mem seen_ids (exp, id) then
    fail "%s: duplicate span id %d" where id;
  (match Obs.Json.member "parent" j with
  | Some Obs.Json.Null -> ()
  | Some (Obs.Json.Int p) when Hashtbl.mem seen_ids (exp, p) -> ()
  | Some (Obs.Json.Int p) ->
      fail "%s: span %d names parent %d not logged before it" where id p
  | Some _ -> fail "%s: \"parent\" is neither null nor an int" where
  | None -> fail "%s: missing \"parent\"" where);
  Hashtbl.replace seen_ids (exp, id) ();
  ignore (need where "number dur_ms" (num "dur_ms" j));
  let name = need where "string name" (str "name" j) in
  (* an operator span names its plan node and carries its actuals *)
  if String.starts_with ~prefix:"exec." name then begin
    let attr key = Option.bind (Obs.Json.member "attrs" j) (int key) in
    (match attr "id" with
    | Some n when n >= 1 -> ()
    | Some n -> fail "%s: %s span's node id %d < 1" where name n
    | None -> fail "%s: %s span has no int node \"id\" attr" where name);
    List.iter
      (fun key ->
        match attr key with
        | Some n when n >= 0 -> ()
        | Some n -> fail "%s: %s span's %s %d < 0" where name key n
        | None -> fail "%s: %s span has no int %S attr" where name key)
      [ "rows"; "work" ]
  end

let check_event where j =
  let exp = Option.value ~default:"" (str "experiment" j) in
  let ts = nonneg_int where "ts_ns" j in
  (match Hashtbl.find_opt last_event_ts exp with
  | Some prev when ts < prev ->
      fail "%s: ts_ns %d < previous %d (not in emit order)" where ts prev
  | _ -> ());
  Hashtbl.replace last_event_ts exp ts;
  ignore (nonneg_int where "seq" j);
  (match str "level" j with
  | Some ("debug" | "info" | "warn" | "error") -> ()
  | Some l -> fail "%s: unknown event level %S" where l
  | None -> fail "%s: missing string \"level\"" where);
  (match str "name" j with
  | Some "" | None -> fail "%s: missing or empty event name" where
  | Some _ -> ());
  match Obs.Json.member "attrs" j with
  | Some (Obs.Json.Obj _) -> ()
  | _ -> fail "%s: missing object \"attrs\"" where

let check_profile where j =
  (match str "path" j with
  | Some "" | None -> fail "%s: missing or empty profile path" where
  | Some _ -> ());
  let calls = need where "int calls" (int "calls" j) in
  if calls < 1 then fail "%s: calls %d < 1" where calls;
  let self_ms = need where "number self_ms" (num "self_ms" j) in
  let total_ms = need where "number total_ms" (num "total_ms" j) in
  if self_ms < 0.0 then fail "%s: self_ms %g < 0" where self_ms;
  if self_ms > total_ms +. 1e-9 then
    fail "%s: self_ms %g > total_ms %g" where self_ms total_ms;
  ignore (nonneg_num where "minor_words" j);
  ignore (nonneg_num where "major_words" j);
  (* OCaml 5.1 has no compactor: a count would always read 0 *)
  if Obs.Json.member "compactions" j <> None then
    fail "%s: profile record carries \"compactions\"" where

let check_baseline where j =
  match need where "string experiment" (str "experiment" j) with
  | "_meta" -> ignore (need where "int version" (int "version" j))
  | _ ->
      List.iter
        (fun key -> ignore (nonneg_int where key j))
        [ "streams"; "work"; "rows"; "bytes" ];
      ignore (need where "number transfer_ms" (num "transfer_ms" j))

let jsonl path =
  let lines = read_lines path in
  if lines = [] then fail "%s: no JSONL lines" path;
  List.iteri
    (fun i line ->
      let where = Printf.sprintf "%s:%d" path (i + 1) in
      match parse where line with
      | Obs.Json.Obj _ as j -> (
          match str "type" j with
          | Some "span" -> check_span where j
          | Some "event" -> check_event where j
          | Some "profile" -> check_profile where j
          | Some "baseline" -> check_baseline where j
          | _ -> fail "%s: missing or bad \"type\" field" where)
      | _ -> fail "%s: not a JSON object" where)
    lines;
  Printf.printf "check_obs: %d valid line(s) in %s\n" (List.length lines) path

(* --- lattice ------------------------------------------------------------- *)

let lattice path =
  let lines = read_lines path in
  let records = List.mapi (fun i l -> (Printf.sprintf "%s:%d" path (i + 1), l)) lines in
  (match records with
  | (where, first) :: _ ->
      let j = parse where first in
      if str "type" j <> Some "stamp" then fail "%s: the first record is not the stamp" where;
      ignore (need where "string machine" (str "machine" j));
      ignore (need where "string ocaml" (str "ocaml" j));
      if nonneg_int where "nproc" j < 1 then fail "%s: nproc < 1" where;
      if not (nonneg_num where "ref_target_ns" j > 0.0) then
        fail "%s: ref_target_ns is not positive" where
  | [] -> fail "%s: no JSONL lines" path);
  let points : (string * float * bool, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let regrets = ref 0 in
  List.iter
    (fun (where, line) ->
      let j = parse where line in
      match str "type" j with
      | Some "stamp" -> ()
      | Some "lattice" ->
          let view = need where "string view" (str "view" j) in
          let scale = nonneg_num where "scale" j in
          let reduce =
            match Obs.Json.member "reduce" j with
            | Some (Obs.Json.Bool b) -> b
            | _ -> fail "%s: missing bool reduce" where
          in
          let mask = nonneg_int where "mask" j in
          let masks =
            match Hashtbl.find_opt points (view, scale, reduce) with
            | Some m -> m
            | None ->
                let m = Hashtbl.create 512 in
                Hashtbl.add points (view, scale, reduce) m;
                m
          in
          if Hashtbl.mem masks mask then
            fail "%s: a second record for %s scale %g mask %d reduce %b" where view scale
              mask reduce;
          Hashtbl.add masks mask ();
          List.iter
            (fun k -> ignore (nonneg_num where k j))
            [ "ms"; "tag_ms"; "norm_ms"; "est_ms"; "est_work" ];
          List.iter
            (fun k -> ignore (nonneg_int where k j))
            [ "streams"; "work"; "tuples"; "bytes" ];
          if nonneg_int where "ref_ns" j < 1 then fail "%s: ref_ns is not positive" where;
          (match Obs.Json.member "nodes" j with
          | Some (Obs.Json.List streams) ->
              List.iter
                (fun st ->
                  ignore (nonneg_num where "wall_ms" st);
                  List.iter
                    (fun (k, least) ->
                      match Obs.Json.member k st with
                      | Some (Obs.Json.List xs) ->
                          List.iter
                            (function
                              | Obs.Json.Int n when n >= least -> ()
                              | _ ->
                                  fail "%s: a non-integer %s entry, or one below %d"
                                    where k least)
                            xs
                      | _ -> fail "%s: missing %s list" where k)
                    [ ("rows", 0); ("ns", -1) ])
                streams
          | _ -> fail "%s: missing nodes list" where)
      | Some "regret" ->
          incr regrets;
          List.iter (fun k -> ignore (nonneg_num where k j)) [ "greedy_ms"; "best_ms" ];
          if nonneg_int where "ref_ns" j < 1 then fail "%s: ref_ns is not positive" where;
          if nonneg_num where "regret" j < 1.0 then fail "%s: regret below 1" where
      | _ -> fail "%s: missing or bad \"type\" field" where)
    records;
  if Hashtbl.length points = 0 then fail "%s: no lattice records" path;
  Hashtbl.iter
    (fun (view, scale, reduce) masks ->
      let n = Hashtbl.length masks in
      if n land (n - 1) <> 0 then
        fail "%s: %s scale %g reduce %b has %d masks, not a power of two" path view scale
          reduce n;
      for m = 0 to n - 1 do
        if not (Hashtbl.mem masks m) then
          fail "%s: %s scale %g reduce %b lacks mask %d" path view scale reduce m
      done)
    points;
  Printf.printf "check_obs: lattice OK: %d lattice(s), %d regret record(s) in %s\n"
    (Hashtbl.length points) !regrets path

(* --- chrome -------------------------------------------------------------- *)

let chrome path extra =
  let events =
    match Obs.Json.member "traceEvents" (parse path (read_file path)) with
    | Some (Obs.Json.List (_ :: _ as l)) -> l
    | Some (Obs.Json.List []) -> fail "%s: \"traceEvents\" is empty" path
    | _ -> fail "%s: missing array \"traceEvents\"" path
  in
  List.iteri
    (fun i e ->
      if str "ph" e = None then
        fail "%s: traceEvents[%d] is not an object with a \"ph\" phase" path i)
    events;
  let complete =
    List.filter_map
      (fun e -> if str "ph" e = Some "X" then str "name" e else None)
      events
  in
  let required = List.map Obs.Stage.name Obs.Stage.pipeline @ extra in
  List.iter
    (fun name ->
      if not (List.mem name complete) then
        fail "%s: no complete (\"ph\":\"X\") event named %S" path name)
    required;
  Printf.printf
    "check_obs: %s: %d event(s), %d complete, all %d required name(s) present\n"
    path (List.length events) (List.length complete) (List.length required)

(* --- telemetry ----------------------------------------------------------- *)

let scrape path =
  try Obs.Expose.parse (read_file path)
  with Obs.Expose.Parse_error m -> fail "%s does not parse: %s" path m

let get parsed key =
  need "exposition" ("series " ^ key) (Obs.Expose.find parsed key)

let is_total key =
  String.ends_with ~suffix:"_total" (List.hd (String.split_on_char '{' key))

let check_slow_record ~threshold_ms where j =
  if str "type" j <> Some "slow_query" then fail "%s: not a slow_query" where;
  if need where "string trace_id" (str "trace_id" j) = "" then
    fail "%s: empty trace id" where;
  let ms = need where "number ms" (num "ms" j) in
  if ms < threshold_ms then
    fail "%s: %gms is under the %gms threshold" where ms threshold_ms;
  (match Obs.Json.member "gc" j with
  | Some (Obs.Json.Obj fields as gc) ->
      let want =
        [ "promoted_words"; "major_words"; "minor_collections"; "major_collections" ]
      in
      if List.map fst fields <> want then
        fail "%s: gc fields [%s], want [%s]" where
          (String.concat "; " (List.map fst fields))
          (String.concat "; " want);
      List.iter (fun key -> ignore (nonneg_num (where ^ " gc") key gc)) want
  | _ -> fail "%s: missing object \"gc\"" where);
  let stages =
    match Obs.Json.member "stages" j with
    | Some (Obs.Json.List l) ->
        List.map
          (fun e ->
            ( need where "stage name" (str "name" e),
              need where "stage ms" (num "ms" e) ))
          l
    | _ -> fail "%s: missing stage list" where
  in
  let want = List.map Obs.Stage.name Obs.Stage.all in
  if List.map fst stages <> want then
    fail "%s: stages [%s], want one entry per stage [%s]" where
      (String.concat "; " (List.map fst stages))
      (String.concat "; " want);
  List.iter
    (fun (name, v) -> if v < 0.0 then fail "%s: stage %s is %g ms" where name v)
    stages;
  let pipeline =
    List.fold_left
      (fun acc (name, v) -> if name = "service" then acc else acc +. v)
      0.0 stages
  in
  if pipeline > ms +. 1e-6 then
    fail "%s: pipeline stages sum to %g ms, more than the request's %g ms"
      where pipeline ms

(* The per-stage latency summaries: one per stage, quantiles ordered
   where the stage was reached, the service stage counted once per
   request, and the pipeline stages' time within the requests'.  Returns
   how many stages were reached. *)
let check_stages p =
  let request_count = get p "silkroute_server_request_ms_count" in
  let request_sum = get p "silkroute_server_request_ms_sum" in
  let pipeline_sum, reached =
    List.fold_left
      (fun (sum, reached) st ->
        let name = Obs.Stage.name st in
        let key suffix =
          Printf.sprintf "silkroute_stage_ms%s{stage=%S}" suffix name
        in
        let count = get p (key "_count") and stage_sum = get p (key "_sum") in
        if st = Obs.Stage.Service && count <> request_count then
          fail "stage service counted %g request(s), the server %g" count
            request_count;
        if count > 0.0 then begin
          let q s =
            get p
              (Printf.sprintf "silkroute_stage_ms{stage=%S,quantile=%S}" name s)
          in
          if not (q "0.5" <= q "0.9" && q "0.9" <= q "0.99") then
            fail "stage %s quantiles out of order: p50 %g p90 %g p99 %g" name
              (q "0.5") (q "0.9") (q "0.99")
        end;
        let sum = if st = Obs.Stage.Service then sum else sum +. stage_sum in
        (sum, if count > 0.0 then reached + 1 else reached))
      (0.0, 0) Obs.Stage.all
  in
  if pipeline_sum > request_sum *. (1.0 +. 1e-9) +. 1e-6 then
    fail "pipeline stages sum to %g ms, more than the requests' %g ms"
      pipeline_sum request_sum;
  reached

let telemetry scrape1 scrape2 slowlog threshold_ms =
  let p1 = scrape scrape1 and p2 = scrape scrape2 in
  (* the dashboard's load-bearing series must all be present *)
  List.iter
    (fun key -> ignore (get p2 key))
    [
      "silkroute_uptime_seconds";
      "silkroute_server_requests_total";
      "silkroute_server_queries_total";
      "silkroute_server_slow_queries_total";
      "silkroute_cache_hit_ratio{tier=\"statement\"}";
      "silkroute_cache_hit_ratio{tier=\"plan\"}";
      "silkroute_cache_hit_ratio{tier=\"result\"}";
      "silkroute_pool_domains";
      "silkroute_slo_samples";
      "silkroute_slo_p99_ms";
      "silkroute_slowlog_written_total";
      "silkroute_slowlog_dropped_total";
    ];
  List.iter
    (fun l ->
      ignore
        (get p2
           (Printf.sprintf "silkroute_events_total{level=%S}"
              (Obs.Event.level_name l))))
    Obs.Event.[ Debug; Info; Warn; Error ];
  if get p2 "silkroute_server_queries_total" <= 0.0 then
    fail "no queries counted after the workload pass";
  if get p2 "silkroute_uptime_seconds" <= get p1 "silkroute_uptime_seconds" then
    fail "uptime did not advance between scrapes";
  (* every counter the first scrape exposed must still exist and must
     not have gone backwards — the registry never loses increments *)
  let monotone =
    List.fold_left
      (fun n (key, v1) ->
        if not (is_total key) then n
        else
          let v2 = get p2 key in
          if v2 < v1 then fail "counter %s went backwards: %g -> %g" key v1 v2;
          n + 1)
      0 p1.Obs.Expose.values
  in
  if monotone = 0 then fail "scrape 1 exposed no counters at all";
  List.iter
    (fun tier ->
      let r = get p2 (Printf.sprintf "silkroute_cache_hit_ratio{tier=%S}" tier) in
      if r < 0.0 || r > 1.0 then fail "%s hit ratio %g out of [0,1]" tier r)
    [ "statement"; "plan"; "result" ];
  let q s = get p2 (Printf.sprintf "silkroute_server_request_ms{quantile=%S}" s) in
  if get p2 "silkroute_server_request_ms_count" <= 0.0 then
    fail "no request latencies were observed";
  if not (q "0.5" <= q "0.9" && q "0.9" <= q "0.99") then
    fail "latency quantiles out of order: p50 %g p90 %g p99 %g" (q "0.5")
      (q "0.9") (q "0.99");
  let reached = check_stages p2 in
  let records = read_lines slowlog in
  if records = [] then fail "slow log is empty (threshold %gms)" threshold_ms;
  List.iteri
    (fun i line ->
      let where = Printf.sprintf "%s:%d" slowlog (i + 1) in
      check_slow_record ~threshold_ms where (parse where line))
    records;
  let written = get p2 "silkroute_slowlog_written_total" in
  if float_of_int (List.length records) > written then
    fail "slow log holds %d records but the server only counted %g"
      (List.length records) written;
  Printf.printf
    "check_obs: telemetry OK: %d monotone counters, %.0f queries, %d slow \
     records, p50/p90/p99 %.2f/%.2f/%.2f ms, %d stage(s) reached\n"
    monotone
    (get p2 "silkroute_server_queries_total")
    (List.length records) (q "0.5") (q "0.9") (q "0.99") reached

let () =
  match Array.to_list Sys.argv with
  | [ _; "jsonl"; path ] -> jsonl path
  | [ _; "lattice"; path ] -> lattice path
  | _ :: "chrome" :: path :: extra -> chrome path extra
  | [ _; "telemetry"; s1; s2; slowlog; threshold ] ->
      telemetry s1 s2 slowlog
        (need "THRESHOLD_MS" "a number" (float_of_string_opt threshold))
  | _ ->
      prerr_endline
        "usage: check_obs jsonl FILE.jsonl\n\
        \       check_obs lattice FILE.jsonl\n\
        \       check_obs chrome FILE.json [NAME...]\n\
        \       check_obs telemetry SCRAPE1 SCRAPE2 SLOWLOG THRESHOLD_MS";
      exit 2
