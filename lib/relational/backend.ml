(* The simulated remote-RDBMS connection, and the engine's one door:
   SQL text comes in, is parsed and planned once, and runs.

   The engine itself is in-process and infallible; everything the paper's
   middleware had to survive — rejected submissions, connections dropped
   mid-result-set, sub-queries killed by the 5-minute timeout — is
   modeled here, between the middleware and Executor.  Faults are drawn
   from a splitmix64 stream seeded by the config, so a run is
   reproducible to the bit; backoff is modeled time, summed and never
   slept, so resilience experiments cost no real time. *)

type fault_config = {
  fault_rate : float;
  fault_seed : int;
  fatal_weight : float;
  midstream_weight : float;
}

let faults ?(seed = 0) ?(fatal_weight = 0.0) ?(midstream_weight = 0.3)
    fault_rate =
  if not (fault_rate >= 0.0 && fault_rate <= 1.0) then
    invalid_arg "Backend.faults: fault rate must be in [0, 1]";
  { fault_rate; fault_seed = seed; fatal_weight; midstream_weight }

let no_faults = faults 0.0

(* Retry backoff: 10 ms, doubling per retry up to 5 s, each jittered
   by a uniform ±25%. *)
let base_backoff_ms = 10.0
let backoff_factor = 2.0
let max_backoff_ms = 5000.0
let jitter = 0.25

type error_kind = Transient | Fatal | Timeout

let kind_name = function
  | Transient -> "transient"
  | Fatal -> "fatal"
  | Timeout -> "timeout"

exception
  Backend_error of {
    kind : error_kind;
    attempt : int;
    rows_delivered : int;
    message : string;
  }

let () =
  Printexc.register_printer (function
    | Backend_error { kind; attempt; rows_delivered; message } ->
        Some
          (Printf.sprintf
             "Backend_error(%s, attempt %d, %d rows delivered: %s)"
             (kind_name kind) attempt rows_delivered message)
    | _ -> None)

type stats = {
  mutable submits : int;
  mutable attempts : int;
  mutable retries : int;
  mutable faults_transient : int;
  mutable faults_midstream : int;
  mutable faults_fatal : int;
  mutable timeouts : int;
  mutable backoff_ms : float;
  mutable wasted_work : int;
}

let new_stats () =
  {
    submits = 0;
    attempts = 0;
    retries = 0;
    faults_transient = 0;
    faults_midstream = 0;
    faults_fatal = 0;
    timeouts = 0;
    backoff_ms = 0.0;
    wasted_work = 0;
  }

let total_faults s = s.faults_transient + s.faults_midstream + s.faults_fatal

(* --- deterministic PRNG (splitmix64) ------------------------------------ *)

type prng = { mutable state : int64 }

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 p =
  p.state <- Int64.add p.state 0x9e3779b97f4a7c15L;
  mix64 p.state

(* uniform in [0, 1), 53 significant bits *)
let next_float p =
  Int64.to_float (Int64.shift_right_logical (next_int64 p) 11)
  /. 9007199254740992.0

type t = {
  database : Database.t;
  fault_cfg : fault_config;
  max_retries : int;
  budget : int;
  profile : Executor.profile;
  prng : prng;
  st : stats;
}

let create ?(faults = no_faults) ?(retries = 3) ?(budget = 0)
    ?(profile = Executor.default_profile) database =
  if budget < 0 then invalid_arg "Backend.create: budget must be >= 0";
  if retries < 0 then invalid_arg "Backend.create: retries must be >= 0";
  {
    database;
    fault_cfg = faults;
    max_retries = retries;
    budget;
    profile;
    prng = { state = Int64.of_int faults.fault_seed };
    st = new_stats ();
  }

let profile t = t.profile
let stats t = { t.st with submits = t.st.submits }

(* An independent connection derived from [t] for one parallel stream:
   same database and configs, fresh stats, and a PRNG seeded by mixing
   the parent's fault seed with [salt].  Forked backends make fault
   draws a function of (seed, salt, submission sequence within the
   stream) — independent of how streams interleave across domains —
   which is what makes parallel resilient execution deterministic. *)
let fork t ~salt =
  {
    t with
    prng =
      {
        state =
          mix64
            (Int64.add
               (Int64.of_int t.fault_cfg.fault_seed)
               (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (salt + 1))));
      };
    st = new_stats ();
  }

let merge_stats sts =
  let m = new_stats () in
  List.iter
    (fun s ->
      m.submits <- m.submits + s.submits;
      m.attempts <- m.attempts + s.attempts;
      m.retries <- m.retries + s.retries;
      m.faults_transient <- m.faults_transient + s.faults_transient;
      m.faults_midstream <- m.faults_midstream + s.faults_midstream;
      m.faults_fatal <- m.faults_fatal + s.faults_fatal;
      m.timeouts <- m.timeouts + s.timeouts;
      m.backoff_ms <- m.backoff_ms +. s.backoff_ms;
      m.wasted_work <- m.wasted_work + s.wasted_work)
    sts;
  m

(* --- fault injection ---------------------------------------------------- *)

(* The injected connection drop that strikes an attempt after
   [delivered] rows: counted, logged, and raised as a transient error. *)
let drop t ~attempt delivered =
  t.st.faults_midstream <- t.st.faults_midstream + 1;
  if Obs.Span.tracing () then
    Obs.Event.warn "backend.fault"
      ~attrs:
        [
          Obs.Attr.string "kind" "midstream";
          Obs.Attr.int "attempt" attempt;
          Obs.Attr.int "rows_delivered" delivered;
        ];
  Backend_error
    {
      kind = Transient;
      attempt;
      rows_delivered = delivered;
      message = Printf.sprintf "injected connection drop after %d rows" delivered;
    }

(* One physical attempt: fault draw, engine run.  Returns the engine's
   output, its stats, and the row count after which an injected
   mid-stream drop cuts the connection, if one was drawn. *)
let submit_attempt t ~attempt ?share (plan : Physical.plan) :
    Batch.t list * Executor.stats * int option =
  t.st.attempts <- t.st.attempts + 1;
  (* Fault draws are consumed in a fixed order so the stream replays
     identically for a fixed seed and submission sequence. *)
  let trip_after =
    if t.fault_cfg.fault_rate > 0.0 && next_float t.prng < t.fault_cfg.fault_rate
    then
      if next_float t.prng < t.fault_cfg.fatal_weight then begin
        t.st.faults_fatal <- t.st.faults_fatal + 1;
        if Obs.Span.tracing () then begin
          Obs.Event.error "backend.fatal"
            ~attrs:
              [
                Obs.Attr.string "kind" "fatal";
                Obs.Attr.int "attempt" attempt;
              ];
          Obs.Event.dump ~reason:"backend-fatal"
        end;
        raise
          (Backend_error
             {
               kind = Fatal;
               attempt;
               rows_delivered = 0;
               message = "injected fatal backend failure at submit";
             })
      end
      else if next_float t.prng < t.fault_cfg.midstream_weight then
        (* the connection will drop after 1..32 delivered rows *)
        Some (1 + Int64.to_int (Int64.logand (next_int64 t.prng) 31L))
      else begin
        t.st.faults_transient <- t.st.faults_transient + 1;
        if Obs.Span.tracing () then
          Obs.Event.warn "backend.fault"
            ~attrs:
              [
                Obs.Attr.string "kind" "transient";
                Obs.Attr.int "attempt" attempt;
              ];
        raise
          (Backend_error
             {
               kind = Transient;
               attempt;
               rows_delivered = 0;
               message = "injected transient submit failure";
             })
      end
    else None
  in
  match
    Executor.run_plan_batches_with_stats ~budget:t.budget ~profile:t.profile
      ?share t.database plan
  with
  | out, est -> (out, est, trip_after)
  | exception Executor.Timeout ->
      t.st.timeouts <- t.st.timeouts + 1;
      (* the engine gave up right at the budget: that much work is sunk *)
      t.st.wasted_work <- t.st.wasted_work + t.budget;
      if Obs.Span.tracing () then
        Obs.Event.error "backend.timeout"
          ~attrs:
            [
              Obs.Attr.int "attempt" attempt;
              Obs.Attr.int "budget" t.budget;
            ];
      raise
        (Backend_error
           {
             kind = Timeout;
             attempt;
             rows_delivered = 0;
             message =
               Printf.sprintf "work budget (%d units) exhausted" t.budget;
           })

(* --- resilient submission ----------------------------------------------- *)

let backoff_ms t ~attempt =
  let base = base_backoff_ms *. (backoff_factor ** float_of_int (attempt - 1)) in
  let capped = Float.min max_backoff_ms base in
  (* uniform jitter: capped * (1 ± jitter) *)
  let u = next_float t.prng in
  capped *. (1.0 -. jitter +. (2.0 *. jitter *. u))

type run = {
  plan : Physical.plan;
  rows : unit -> Cursor.t;
  stats : Executor.stats;
  tuples : int;
  bytes : int;
  transfer_ms : float;
}

(* Drain one attempt's output, in its own span: count its tuples and
   wire bytes from the batch lengths and the sizes the rows carry (no
   row is visited, no value read), price the transfer in closed form,
   then keep the output in the heap (every open is a fresh cursor over
   the engine's own output batches) or move it to a spool file (one
   single-use cursor).  A drop drawn for [trip] rows strikes when the
   result has more rows than that, before anything is spooled; one
   scheduled beyond the end of the stream never fires — the result
   finished before the (virtual) reset arrived. *)
let drain t ~attempt ~trip ~spool (plan : Physical.plan) stats out =
  Obs.Span.with_span "backend.drain" (fun () ->
      let tuples = List.fold_left (fun acc b -> acc + Batch.length b) 0 out in
      (match trip with
      | Some n when tuples > n -> raise (drop t ~attempt n)
      | _ -> ());
      let bytes = List.fold_left (fun acc b -> acc + Batch.total_bytes b) 0 out in
      let open_rows () = Cursor.of_batches plan.Physical.cols out in
      let rows =
        if spool then
          let spooled = Cursor.spool (open_rows ()) in
          fun () -> spooled
        else open_rows
      in
      if Obs.Span.tracing () then
        Obs.Span.add_list [ Obs.Attr.int "tuples" tuples; Obs.Attr.int "bytes" bytes ];
      { plan; rows; stats; tuples; bytes; transfer_ms = Transfer.stream_ms ~tuples ~bytes })

let plan database text =
  let ast =
    Obs.Span.with_stage Obs.Stage.Sql_parser (fun () -> Sql_parser.parse text)
  in
  Obs.Span.with_stage Obs.Stage.Physical (fun () ->
      Physical.plan_of database ast)

(* Every attempt runs the same plan, which no run writes. *)
let execute_plan ?(label = "") ?(spool = false) ?share t plan : run =
  Obs.Span.with_stage Obs.Stage.Executor (fun () ->
  t.st.submits <- t.st.submits + 1;
  let rec attempt k =
    let result =
      Obs.Span.with_span "backend.submit" (fun () ->
          if Obs.Span.tracing () then
            Obs.Span.add_list
              [ Obs.Attr.string "label" label; Obs.Attr.int "attempt" k ];
          match submit_attempt t ~attempt:k ?share plan with
          | out, est, trip -> (
              (* Drain now, inside the retry scope: a mid-stream drop
                 surfaces here, discards the partial rows, and is
                 retried like any other transient failure. *)
              try
                let r = drain t ~attempt:k ~trip ~spool plan est out in
                if Obs.Span.tracing () then
                  Obs.Span.add "outcome" (Obs.Attr.String "ok");
                Ok r
              with Backend_error { kind; _ } as exn ->
                (* the engine did run to completion; its work is sunk *)
                t.st.wasted_work <- t.st.wasted_work + est.Executor.work;
                if Obs.Span.tracing () then
                  Obs.Span.add "outcome" (Obs.Attr.String (kind_name kind));
                Error exn)
          | exception (Backend_error { kind; _ } as exn) ->
              if Obs.Span.tracing () then
                Obs.Span.add "outcome" (Obs.Attr.String (kind_name kind));
              Error exn)
    in
    match result with
    | Ok r -> r
    | Error (Backend_error { kind = Transient; _ } as exn) ->
        if k > t.max_retries then raise exn
        else begin
          let wait = backoff_ms t ~attempt:k in
          Obs.Span.with_span "backend.retry" (fun () ->
              if Obs.Span.tracing () then begin
                Obs.Span.add_list
                  [
                    Obs.Attr.string "label" label;
                    Obs.Attr.int "attempt" k;
                    Obs.Attr.float "backoff_ms" wait;
                  ];
                Obs.Event.warn "backend.retry"
                  ~attrs:
                    [
                      Obs.Attr.string "label" label;
                      Obs.Attr.int "attempt" k;
                      Obs.Attr.float "backoff_ms" wait;
                    ]
              end);
          t.st.retries <- t.st.retries + 1;
          t.st.backoff_ms <- t.st.backoff_ms +. wait;
          attempt (k + 1)
        end
    | Error exn -> raise exn (* Fatal / Timeout: retrying cannot help *)
  in
  let r = attempt 1 in
  if Obs.Span.tracing () then
    Obs.Span.add_list
      (Obs.Attr.int "rows" r.stats.actuals.rows.(plan.root.id)
      :: Executor.stats_attrs r.stats);
  r)
