(* One request to a running `silkroute serve`, for the smoke scripts.

     serve_query SOCKET query VIEW_FILE STRATEGY — runs the RXL view in
       VIEW_FILE under STRATEGY (reduction off) and prints one line,
       "plan_hit=B result_hit=B work=N"; any reply but a result exits 1.
     serve_query SOCKET invalidate TABLE FACTOR — invalidates, skewing
       TABLE's catalog entry by FACTOR, and prints the reply's line.
     serve_query SOCKET stats — prints the server's counter report.
     serve_query SOCKET shutdown — asks the server to stop.

   It speaks the wire protocol through Server.Workload.request, as the
   CLI's workload and monitor commands do. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve_query: " ^ m); exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ socket; "query"; view_file; strategy ] -> (
      let view = read_file view_file in
      match
        Server.Workload.request ~socket
          (Server.Protocol.Query { view; strategy; reduce = false })
      with
      | Some (Server.Protocol.Result { tiers; work; _ }) ->
          Printf.printf "plan_hit=%b result_hit=%b work=%d\n"
            tiers.Server.Protocol.plan_hit tiers.Server.Protocol.result_hit
            work
      | Some r -> fail "%s: %s reply" strategy (Server.Protocol.reply_name r)
      | None -> fail "%s: the server closed the connection" strategy)
  | [ socket; "invalidate"; table; factor ] -> (
      let factor =
        match float_of_string_opt factor with
        | Some f -> f
        | None -> fail "invalidate: bad factor %s" factor
      in
      match
        Server.Workload.request ~socket
          (Server.Protocol.Invalidate { table; factor })
      with
      | Some (Server.Protocol.Info line) -> print_endline line
      | Some r -> fail "invalidate: %s reply" (Server.Protocol.reply_name r)
      | None -> fail "invalidate: the server closed the connection")
  | [ socket; "stats" ] -> (
      match Server.Workload.request ~socket Server.Protocol.Stats with
      | Some (Server.Protocol.Info report) -> print_endline report
      | Some r -> fail "stats: %s reply" (Server.Protocol.reply_name r)
      | None -> fail "stats: the server closed the connection")
  | [ socket; "shutdown" ] -> (
      match Server.Workload.request ~socket Server.Protocol.Shutdown with
      | Some (Server.Protocol.Info _) -> ()
      | Some r -> fail "shutdown: %s reply" (Server.Protocol.reply_name r)
      | None -> fail "shutdown: the server closed the connection")
  | _ ->
      fail
        "usage: serve_query SOCKET (query VIEW_FILE STRATEGY | invalidate \
         TABLE FACTOR | stats | shutdown)"
