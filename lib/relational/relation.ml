(* A materialized result set: named columns plus tuples.  Stored tables
   live in [Database]; this type is what queries produce and what the
   middleware's tagger consumes as a (sorted) tuple stream. *)

type t = { cols : string array; rows : Tuple.t list }

let create cols rows =
  let n = Array.length cols in
  List.iter
    (fun r ->
      if Tuple.arity r <> n then
        invalid_arg
          (Printf.sprintf "Relation.create: tuple arity %d, expected %d"
             (Tuple.arity r) n))
    rows;
  { cols; rows }

let cols t = t.cols
let rows t = t.rows
let cardinality t = List.length t.rows

let column_index t name =
  let n = Array.length t.cols in
  let rec go i =
    if i >= n then None else if t.cols.(i) = name then Some i else go (i + 1)
  in
  go 0

let sort_by positions t =
  { t with rows = List.stable_sort (Tuple.compare_at positions) t.rows }

let equal a b =
  a.cols = b.cols
  && List.length a.rows = List.length b.rows
  && List.for_all2 Tuple.equal a.rows b.rows
