(* The one stage list, and the per-request clock over it. *)

type t =
  | Rxl_parser
  | View_tree
  | Planner
  | Sql_gen
  | Sql_print
  | Sql_parser
  | Physical
  | Executor
  | Tagger
  | Service

let pipeline =
  [
    Rxl_parser; View_tree; Planner; Sql_gen; Sql_print; Sql_parser; Physical;
    Executor; Tagger;
  ]

let all = pipeline @ [ Service ]

let name = function
  | Rxl_parser -> "rxl_parser"
  | View_tree -> "view_tree"
  | Planner -> "planner"
  | Sql_gen -> "sql_gen"
  | Sql_print -> "sql_print"
  | Sql_parser -> "sql_parser"
  | Physical -> "physical"
  | Executor -> "executor"
  | Tagger -> "tagger"
  | Service -> "service"

let index = function
  | Rxl_parser -> 0
  | View_tree -> 1
  | Planner -> 2
  | Sql_gen -> 3
  | Sql_print -> 4
  | Sql_parser -> 5
  | Physical -> 6
  | Executor -> 7
  | Tagger -> 8
  | Service -> 9

(* One atomic slot per stage: fan-out adds from worker domains race
   only on the slot they share, and [fetch_and_add] makes that safe. *)
type clock = int Atomic.t array

let clock () = Array.init (List.length all) (fun _ -> Atomic.make 0)
let add c st ns = ignore (Atomic.fetch_and_add c.(index st) ns)
let ns c st = Atomic.get c.(index st)
