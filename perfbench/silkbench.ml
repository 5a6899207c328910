(* Helper of perfbench/run.py: writes a workload's inputs, prints its
   script, or runs the traced in-process replay.

     silkbench gen    --workload W --seed N --seconds S --dir D
     silkbench script --workload W --seed N --seconds S
     silkbench replay --workload W --dir D

   [gen] writes D/schema.sd and D/data/<Table>.csv (the --schema/--data
   inputs of [silkroute serve]), the views D/view<i>.rxl, their reference
   documents D/ref<i>.xml, the scripts D/warmup.txt and D/script.txt, and
   D/meta.json (server flags and the workload's measured properties). *)

module R = Relational
module S = Silkroute
module W = Workloads

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Properties of the script: how many queries repeat an earlier key, how
   many streams each plan has, and how large the replies are.  The share
   the result tier answers is measured on the server (run.py) and in the
   traced replay. *)
let properties (ctx : W.ctx) warmup script =
  let refs = Lazy.force ctx.W.refs in
  let seen = Hashtbl.create 256 in
  Array.iter (fun r -> Hashtbl.replace seen (W.to_line r) ()) warmup;
  let queries = ref 0 and repeated = ref 0 and bytes = ref 0 in
  let streams = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      match r with
      | W.Query { view; _ } ->
          incr queries;
          if Hashtbl.mem seen (W.to_line r) then incr repeated;
          Hashtbl.replace seen (W.to_line r) ();
          bytes := !bytes + String.length refs.(view);
          let tree = ctx.W.prepared.(view).S.Middleware.tree in
          let n = S.Partition.stream_count (S.Partition.of_mask tree (W.mask_of ctx r)) in
          Hashtbl.replace streams n (1 + Option.value (Hashtbl.find_opt streams n) ~default:0)
      | W.Invalidate -> ())
    script;
  let share n = float_of_int n /. float_of_int (max 1 !queries) in
  let histogram =
    Hashtbl.fold (fun n c acc -> (n, c) :: acc) streams [] |> List.sort compare
  in
  [
    ("queries", Obs.Json.Int !queries);
    ("requests", Obs.Json.Int (Array.length script));
    ("warmup_requests", Obs.Json.Int (Array.length warmup));
    ("repeated_key_share", Obs.Json.Float (share !repeated));
    ( "streams",
      Obs.Json.Obj (List.map (fun (n, c) -> (string_of_int n, Obs.Json.Int c)) histogram) );
    ("reply_kb_mean", Obs.Json.Float (float_of_int !bytes /. 1024.0 /. float_of_int (max 1 !queries)));
  ]

let gen (w : W.t) ~seed ~seconds ~dir =
  let db = W.database w ~seed in
  write (Filename.concat dir "schema.sd") (R.Source_desc.to_string (R.Source_desc.of_database db));
  let data = Filename.concat dir "data" in
  if not (Sys.file_exists data) then Sys.mkdir data 0o755;
  let tables = R.Database.table_names db in
  let csv_bytes =
    List.fold_left
      (fun acc table ->
        let text = R.Csv.export db table in
        write (Filename.concat data (table ^ ".csv")) text;
        acc + String.length text)
      0 tables
  in
  let ctx = W.context db in
  let refs = Lazy.force ctx.W.refs in
  Array.iteri
    (fun i text ->
      write (Filename.concat dir (Printf.sprintf "view%d.rxl" i)) text;
      write (Filename.concat dir (Printf.sprintf "ref%d.xml" i)) refs.(i))
    W.views;
  let warmup, script = W.script w ctx ~seed ~seconds in
  W.write_script (Filename.concat dir "warmup.txt") warmup;
  W.write_script (Filename.concat dir "script.txt") script;
  let rows = List.fold_left (fun acc t -> acc + R.Database.row_count db t) 0 tables in
  let meta =
    Obs.Json.Obj
      ([
         ("workload", Obs.Json.String w.W.name);
         ("seed", Obs.Json.Int seed);
         ("scale", Obs.Json.Float w.W.scale);
         ("rows", Obs.Json.Int rows);
         ("data_kb", Obs.Json.Float (float_of_int csv_bytes /. 1024.0));
         ("passes", Obs.Json.Int w.W.passes);
         ("server_args", Obs.Json.List (List.map (fun a -> Obs.Json.String a) (W.server_args w)));
       ]
      @ properties ctx warmup script)
  in
  write (Filename.concat dir "meta.json") (Obs.Json.to_string meta ^ "\n")

let print_script (w : W.t) ~seed ~seconds =
  let warmup, script = W.script w (W.context (W.database w ~seed)) ~seed ~seconds in
  Array.iter (fun r -> print_endline ("warmup " ^ W.to_line r)) warmup;
  Array.iter (fun r -> print_endline (W.to_line r)) script

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        opts ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | arg :: _ -> invalid_arg ("silkbench: unexpected argument " ^ arg)
  in
  let usage () =
    prerr_endline
      "usage: silkbench (gen|script|replay) --workload W [--seed N] [--seconds S] [--dir D]";
    exit 2
  in
  match args with
  | _ :: cmd :: rest -> (
      let o = opts [] rest in
      let get name = match List.assoc_opt name o with Some v -> v | None -> usage () in
      let w = W.find (get "workload") in
      let seed () = int_of_string (get "seed") and seconds () = int_of_string (get "seconds") in
      match cmd with
      | "gen" -> gen w ~seed:(seed ()) ~seconds:(seconds ()) ~dir:(get "dir")
      | "script" -> print_script w ~seed:(seed ()) ~seconds:(seconds ())
      | "replay" -> Replay.run w ~dir:(get "dir")
      | _ -> usage ())
  | _ -> usage ()
