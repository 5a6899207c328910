(* Tuples are immutable-by-convention value arrays.  Helpers here are the
   hot path of joins, sorts and the merge tagger. *)

type t = Value.t array

let arity = Array.length

let concat (a : t) (b : t) : t = Array.append a b

let all_null n : t = Array.make n Value.Null

let project (positions : int array) (t : t) : t =
  Array.map (fun i -> t.(i)) positions

(* Lexicographic comparison on the given positions, using the total value
   order (NULL first). *)
let compare_at (positions : int array) (a : t) (b : t) =
  let n = Array.length positions in
  let rec go i =
    if i >= n then 0
    else
      let c = Value.compare_total a.(positions.(i)) b.(positions.(i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The fields of [a] at [pa] equal those of [b] at [pb], in order, under
   {!Value.equal} (so NULL equals NULL); [pa] and [pb] have one length. *)
let equal_at (pa : int array) (a : t) (pb : int array) (b : t) =
  let n = Array.length pa in
  let i = ref 0 in
  while !i < n && Value.equal a.(pa.(!i)) b.(pb.(!i)) do
    incr i
  done;
  !i = n

let hash_at (positions : int array) (t : t) =
  let h = ref 17 in
  for i = 0 to Array.length positions - 1 do
    h := (!h * 31) + Value.hash t.(positions.(i))
  done;
  !h

let compare (a : t) (b : t) =
  let na = arity a and nb = arity b in
  let c = Int.compare na nb in
  if c <> 0 then c
  else
    let rec go i =
      if i >= na then 0
      else
        let c = Value.compare_total a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal a b = compare a b = 0

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 t
end)

let wire_size (t : t) =
  let n = ref 0 in
  for i = 0 to Array.length t - 1 do
    n := !n + Value.wire_size t.(i)
  done;
  !n

let to_string (t : t) =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string t)) ^ ")"
