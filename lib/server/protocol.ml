(* Length-prefixed framing: [u32 field-count][u32 len + bytes]*.

   Both directions use the same frame shape, so the encoder/decoder pair
   below is shared by requests and replies; the per-message code only
   maps constructors to and from field lists.  Limits keep a corrupt or
   hostile peer from driving an unbounded allocation: a frame may carry
   at most 16 fields of at most 64 MB each. *)

exception Protocol_error of string

let max_fields = 16
let max_field_bytes = 64 * 1024 * 1024

type request =
  | Query of { view : string; strategy : string; reduce : bool }
  | Invalidate of { table : string; factor : float }
  | Stats
  | Metrics
  | Health
  | Shutdown

type tiers = { statement_hit : bool; plan_hit : bool; result_hit : bool }

type reply =
  | Result of { xml : string; tiers : tiers; work : int; est_cost : float }
  | Info of string
  | Rejected of string
  | Failed of string

(* --- frames ------------------------------------------------------------- *)

let write_u32 oc n =
  output_binary_int oc n (* 4 bytes, big-endian; n is trusted small *)

(* The limits are checked before the first byte is written, so a frame
   the reader would reject leaves the channel as it was. *)
let write_frame oc fields =
  List.iter
    (fun f ->
      if String.length f > max_field_bytes then
        raise
          (Protocol_error
             (Printf.sprintf "field of %d bytes exceeds the %d-byte limit"
                (String.length f) max_field_bytes)))
    fields;
  write_u32 oc (List.length fields);
  List.iter
    (fun f ->
      write_u32 oc (String.length f);
      output_string oc f)
    fields;
  flush oc

(* First u32 of a frame: a clean EOF here is a closed peer, not an
   error.  EOF anywhere later means a truncated frame. *)
let read_frame ic =
  match input_binary_int ic with
  | exception End_of_file -> None
  | count ->
      if count < 1 || count > max_fields then
        raise
          (Protocol_error (Printf.sprintf "bad frame field count %d" count));
      let field () =
        match input_binary_int ic with
        | exception End_of_file ->
            raise (Protocol_error "truncated frame (missing field length)")
        | len ->
            if len < 0 || len > max_field_bytes then
              raise
                (Protocol_error (Printf.sprintf "bad field length %d" len));
            (try really_input_string ic len
             with End_of_file ->
               raise (Protocol_error "truncated frame (short field)"))
      in
      Some (List.init count (fun _ -> field ()))

(* --- field codecs ------------------------------------------------------- *)

let bool_field b = if b then "1" else "0"

let bool_of_field ~what = function
  | "1" -> true
  | "0" -> false
  | s -> raise (Protocol_error (Printf.sprintf "bad %s flag %S" what s))

let int_of_field ~what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Protocol_error (Printf.sprintf "bad %s %S" what s))

let float_of_field ~what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Protocol_error (Printf.sprintf "bad %s %S" what s))

(* --- requests ----------------------------------------------------------- *)

let write_request oc = function
  | Query { view; strategy; reduce } ->
      write_frame oc [ "Q"; view; strategy; bool_field reduce ]
  | Invalidate { table; factor } ->
      write_frame oc [ "I"; table; Printf.sprintf "%h" factor ]
  | Stats -> write_frame oc [ "S" ]
  | Metrics -> write_frame oc [ "M" ]
  | Health -> write_frame oc [ "H" ]
  | Shutdown -> write_frame oc [ "X" ]

let read_request ic =
  match read_frame ic with
  | None -> None
  | Some [ "Q"; view; strategy; reduce ] ->
      Some (Query { view; strategy; reduce = bool_of_field ~what:"reduce" reduce })
  | Some [ "I"; table; factor ] ->
      Some (Invalidate { table; factor = float_of_field ~what:"factor" factor })
  | Some [ "S" ] -> Some Stats
  | Some [ "M" ] -> Some Metrics
  | Some [ "H" ] -> Some Health
  | Some [ "X" ] -> Some Shutdown
  | Some ((("M" | "H") as tag) :: _ :: _) ->
      (* telemetry requests carry no operands; extra fields are a
         malformed frame, not silently-ignored payload *)
      raise
        (Protocol_error
           (Printf.sprintf "telemetry request %S takes no fields" tag))
  | Some (tag :: _) ->
      raise (Protocol_error (Printf.sprintf "bad request frame (tag %S)" tag))
  | Some [] -> raise (Protocol_error "empty request frame")

(* --- replies ------------------------------------------------------------ *)

let write_reply oc = function
  | Result { xml; tiers; work; est_cost } ->
      write_frame oc
        [
          "R";
          xml;
          bool_field tiers.statement_hit;
          bool_field tiers.plan_hit;
          bool_field tiers.result_hit;
          string_of_int work;
          Printf.sprintf "%h" est_cost;
        ]
  | Info s -> write_frame oc [ "i"; s ]
  | Rejected s -> write_frame oc [ "r"; s ]
  | Failed s -> write_frame oc [ "f"; s ]

let read_reply ic =
  match read_frame ic with
  | None -> None
  | Some [ "R"; xml; sh; ph; rh; work; est ] ->
      Some
        (Result
           {
             xml;
             tiers =
               {
                 statement_hit = bool_of_field ~what:"statement_hit" sh;
                 plan_hit = bool_of_field ~what:"plan_hit" ph;
                 result_hit = bool_of_field ~what:"result_hit" rh;
               };
             work = int_of_field ~what:"work" work;
             est_cost = float_of_field ~what:"est_cost" est;
           })
  | Some [ "i"; s ] -> Some (Info s)
  | Some [ "r"; s ] -> Some (Rejected s)
  | Some [ "f"; s ] -> Some (Failed s)
  | Some (tag :: _) ->
      raise (Protocol_error (Printf.sprintf "bad reply frame (tag %S)" tag))
  | Some [] -> raise (Protocol_error "empty reply frame")

let reply_name = function
  | Result _ -> "result"
  | Info _ -> "info"
  | Rejected _ -> "rejected"
  | Failed _ -> "failed"
