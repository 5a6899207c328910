module R = Relational
module S = Silkroute

type view = { wv_name : string; wv_text : string; wv_expected : string option }

(* Reference output via the plain middleware path: unified partition, no
   reduction — any plan of the lattice must produce these exact bytes,
   so one reference per view checks every strategy the script draws. *)
let reference db text =
  let p = S.Middleware.prepare_text db text in
  let partition = S.Middleware.partition_of p S.Middleware.Unified in
  let e = S.Middleware.execute p partition in
  S.Middleware.xml_string_of p e

let standard_views ?(verify = true) db =
  List.map
    (fun (wv_name, wv_text) ->
      {
        wv_name;
        wv_text;
        wv_expected = (if verify then Some (reference db wv_text) else None);
      })
    [
      ("query1", S.Queries.query1_text);
      ("query2", S.Queries.query2_text);
      ("fragment", S.Queries.fragment_text);
    ]

type config = {
  clients : int;
  requests_per_client : int;
  seed : int;
  strategies : string list;
  invalidate_every : int;
}

let default_config =
  {
    clients = 4;
    requests_per_client = 24;
    seed = 42;
    strategies = [ "greedy"; "unified"; "partitioned"; "edges:1"; "edges:3" ];
    invalidate_every = 10;
  }

let script ~views cfg =
  if views = [] then invalid_arg "Workload.script: no views";
  if cfg.strategies = [] then invalid_arg "Workload.script: no strategies";
  if cfg.clients < 1 then invalid_arg "Workload.script: clients must be >= 1";
  if cfg.requests_per_client < 1 then
    invalid_arg "Workload.script: requests must be >= 1";
  let views = Array.of_list views in
  let strategies = Array.of_list cfg.strategies in
  Array.init cfg.clients (fun client ->
      let st = Random.State.make [| cfg.seed; client |] in
      Array.init cfg.requests_per_client (fun i ->
          if
            cfg.invalidate_every > 0 && client = 0 && i > 0
            && i mod cfg.invalidate_every = 0
          then Protocol.Invalidate { table = ""; factor = 1.0 }
          else
            let v = views.(Random.State.int st (Array.length views)) in
            let s = strategies.(Random.State.int st (Array.length strategies)) in
            Protocol.Query
              { view = v.wv_text; strategy = s; reduce = Random.State.bool st }))

type tally = {
  queries : int;
  results : int;
  statement_hits : int;
  plan_hits : int;
  result_hits : int;
  rejected : int;
  failed : int;
  infos : int;
  work : int;
  bytes : int;
  mismatches : string list;
  errors : string list;
  lat_samples : int;
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
}

let empty_tally =
  {
    queries = 0;
    results = 0;
    statement_hits = 0;
    plan_hits = 0;
    result_hits = 0;
    rejected = 0;
    failed = 0;
    infos = 0;
    work = 0;
    bytes = 0;
    mismatches = [];
    errors = [];
    lat_samples = 0;
    lat_p50_ms = 0.0;
    lat_p90_ms = 0.0;
    lat_p99_ms = 0.0;
  }

(* The workload holds every latency, so its percentiles are exact. *)
let percentile_of_sorted = Obs.Profile.percentile_of_sorted

(* The transport-agnostic replay core: scripts plus a thread-safe
   recorder.  Transports drive iteration themselves (sequential
   round-robin or one thread per client) and feed every (request, reply)
   pair through [record]. *)
let recorder ~views ~verify cfg =
  let expected = Hashtbl.create 8 in
  if verify then
    List.iter
      (fun v ->
        match v.wv_expected with
        | Some xml -> Hashtbl.replace expected v.wv_text (v.wv_name, xml)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Workload: verification requested but view %s has no \
                  reference output"
                 v.wv_name))
      views;
  let m = Mutex.create () in
  let t = ref empty_tally in
  let lats = ref [] in
  let bump f = Mutex.protect m (fun () -> t := f !t) in
  let record client i req ~ms reply =
    (* measured wall-clock per request: every [Query] round trip counts,
       whatever the reply — rejections and failures take real time too *)
    (match req with
    | Protocol.Query _ -> Mutex.protect m (fun () -> lats := ms :: !lats)
    | _ -> ());
    match (req, reply) with
    | ( Protocol.Query { view; strategy; _ },
        Protocol.Result { xml = got; tiers; work; _ } ) ->
        let mismatch =
          if not verify then None
          else
            match Hashtbl.find_opt expected view with
            | Some (_, xml) when String.equal xml got -> None
            | Some (name, _) ->
                Some
                  (Printf.sprintf
                     "client %d request %d: view %s under %s returned %d \
                      bytes that differ from the reference"
                     client i name strategy (String.length got))
            | None ->
                Some
                  (Printf.sprintf
                     "client %d request %d: reply for an unknown view" client i)
        in
        bump (fun t ->
            {
              t with
              queries = t.queries + 1;
              results = t.results + 1;
              statement_hits =
                (t.statement_hits + if tiers.Protocol.statement_hit then 1 else 0);
              plan_hits = (t.plan_hits + if tiers.Protocol.plan_hit then 1 else 0);
              result_hits =
                (t.result_hits + if tiers.Protocol.result_hit then 1 else 0);
              work = t.work + work;
              bytes = t.bytes + String.length got;
              mismatches =
                (match mismatch with
                | Some msg -> msg :: t.mismatches
                | None -> t.mismatches);
            })
    | Protocol.Query _, Protocol.Rejected _ ->
        bump (fun t ->
            { t with queries = t.queries + 1; rejected = t.rejected + 1 })
    | _, Protocol.Info _ -> bump (fun t -> { t with infos = t.infos + 1 })
    | _, Protocol.Rejected _ ->
        bump (fun t -> { t with rejected = t.rejected + 1 })
    | req, Protocol.Failed msg ->
        let queries =
          match req with Protocol.Query _ -> 1 | _ -> 0
        in
        bump (fun t ->
            {
              t with
              queries = t.queries + queries;
              failed = t.failed + 1;
              errors =
                (if List.mem msg t.errors then t.errors else msg :: t.errors);
            })
    | _, Protocol.Result _ ->
        bump (fun t ->
            {
              t with
              failed = t.failed + 1;
              errors = "result reply to a non-query request" :: t.errors;
            })
  in
  let finish () =
    let t, lats = Mutex.protect m (fun () -> (!t, !lats)) in
    let sorted = Array.of_list lats in
    Array.sort compare sorted;
    {
      t with
      mismatches = List.rev t.mismatches;
      errors = List.rev t.errors;
      lat_samples = Array.length sorted;
      lat_p50_ms = percentile_of_sorted sorted 0.50;
      lat_p90_ms = percentile_of_sorted sorted 0.90;
      lat_p99_ms = percentile_of_sorted sorted 0.99;
    }
  in
  (script ~views cfg, record, finish)

let run_client scripts record client send =
  Array.iteri
    (fun i req ->
      let t0 = Obs.Clock.now_ns () in
      let reply = send req in
      let ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
      record client i req ~ms reply)
    scripts.(client)

let run_direct ?(threads = false) ?(verify = true) server ~views cfg =
  let scripts, record, finish = recorder ~views ~verify cfg in
  let send req = Service.handle server req in
  if threads then begin
    let ts =
      List.init (Array.length scripts) (fun c ->
          Thread.create (fun () -> run_client scripts record c send) ())
    in
    List.iter Thread.join ts
  end
  else begin
    (* round-robin interleave: client 0 request 0, client 1 request 0, …
       — deterministic, and still exercises cross-client cache reuse *)
    let longest =
      Array.fold_left (fun acc ops -> max acc (Array.length ops)) 0 scripts
    in
    for i = 0 to longest - 1 do
      Array.iteri
        (fun c ops ->
          if i < Array.length ops then begin
            let t0 = Obs.Clock.now_ns () in
            let reply = send ops.(i) in
            let ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
            record c i ops.(i) ~ms reply
          end)
        scripts
    done
  end;
  finish ()

(* A connection to [socket]; a failure to connect names the path. *)
let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Unix.Unix_error (e, "connect", socket)));
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request ~socket req =
  let ic, oc = connect socket in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Protocol.write_request oc req;
      Protocol.read_reply ic)

let run_socket ?(verify = true) ~socket ~views cfg =
  let scripts, record, finish = recorder ~views ~verify cfg in
  let failure = Atomic.make None in
  let client c () =
    try
      let ic, oc = connect socket in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let send req =
            Protocol.write_request oc req;
            match Protocol.read_reply ic with
            | Some reply -> reply
            | None -> Protocol.Failed "server closed the connection"
          in
          run_client scripts record c send)
    with e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  let ts = List.init (Array.length scripts) (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join ts;
  Option.iter raise (Atomic.get failure);
  finish ()

let render t =
  String.concat "\n"
    [
      Printf.sprintf
        "workload: queries=%d results=%d rejected=%d failed=%d infos=%d"
        t.queries t.results t.rejected t.failed t.infos;
      Printf.sprintf "hits: statement=%d plan=%d result=%d" t.statement_hits
        t.plan_hits t.result_hits;
      Printf.sprintf "volume: work=%d bytes=%d" t.work t.bytes;
      Printf.sprintf "latency: samples=%d p50=%.2fms p90=%.2fms p99=%.2fms"
        t.lat_samples t.lat_p50_ms t.lat_p90_ms t.lat_p99_ms;
      Printf.sprintf "identity: mismatches=%d%s" (List.length t.mismatches)
        (match t.mismatches with [] -> "" | m :: _ -> " first=" ^ m);
      (match t.errors with
      | [] -> "errors: none"
      | es -> "errors: " ^ String.concat "; " es);
    ]
