(* SQL values with three-valued comparison semantics and a separate total
   order used for ORDER BY (where NULLs sort first, as the paper's merge
   tagger requires a deterministic stream order). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Date of int (* days since 1970-01-01 *)

type ty = TInt | TFloat | TBool | TString | TDate

let type_of = function
  | Null -> None
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Bool _ -> Some TBool
  | String _ -> Some TString
  | Date _ -> Some TDate

let ty_name = function
  | TInt -> "INT"
  | TFloat -> "FLOAT"
  | TBool -> "BOOL"
  | TString -> "VARCHAR"
  | TDate -> "DATE"

let is_null = function Null -> true | _ -> false

(* Rank used only to give the total order a stable cross-type behaviour;
   well-typed queries never compare across types. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Date _ -> 4
  | String _ -> 5

(* An Int against a Float, exactly, so the order stays transitive past
   2^53: NaN is below every number (as [Float.compare] has it), a Float
   outside the int range beyond every Int, and a fraction breaks a tie. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let t = Float.trunc y in
    let c = Int.compare x (int_of_float t) in
    if c <> 0 then c else Float.compare t y

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | a, b -> Int.compare (rank a) (rank b)

(* SQL comparison: None when either side is NULL (UNKNOWN). *)
let compare3 a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | a, b -> Some (compare_total a b)

let equal a b = compare_total a b = 0

(* An inline integer mix (splitmix64's finalizer, constants cut to
   OCaml's 63 bits): every input bit reaches the low bits, which the
   executor's hash indexes mask, without a [caml_hash] call.  The
   result is non-negative. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  (x lxor (x lsr 31)) land max_int

(* A Float equal to an Int hashes as that Int, so [equal] values of
   either constructor hash alike: an integral float in the int range
   hashes as the int it is (which also merges -0.0 with 0.0). *)
let hash = function
  | Null -> 0
  | Int x -> mix x
  | Float x ->
      if Float.is_integer x && x >= -0x1p62 && x < 0x1p62 then
        mix (int_of_float x)
      else Hashtbl.hash x
  | Bool x -> if x then 1 else 2
  | String x -> Hashtbl.hash x
  | Date x -> mix x

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Bool x -> if x then "TRUE" else "FALSE"
  | String x -> x
  | Date x -> Printf.sprintf "1970+%dd" x

(* SQL literal syntax, for query printing and round-tripping. *)
let to_sql = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%h" x
  | Bool x -> if x then "TRUE" else "FALSE"
  | String x ->
      let buf = Buffer.create (String.length x + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        x;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | Date x -> Printf.sprintf "DATE %d" x

(* Number of bytes the value occupies on the wire in the transfer model:
   a fixed per-field header plus a payload.  NULLs are cheap but not free,
   which is what makes wide null-padded outer-join tuples expensive, as
   observed in the paper's total-time measurements. *)
let wire_size = function
  | Null -> 2
  | Int _ -> 6
  | Float _ -> 10
  | Bool _ -> 3
  | String s -> 2 + String.length s
  | Date _ -> 6
