(* Non-recursive datalog with filters — the annotation language of view
   trees (paper Sec. 3.1): each view-tree node carries one rule whose head
   is a Skolem term and whose body is the conjunction of the from/where
   clauses in scope.

   Atoms are positional over the stored relations; [Wild] positions are
   the underscores of the paper's datalog syntax. *)

module R = Relational

type term =
  | Var of string
  | Const of R.Value.t
  | Wild

type atom = { rel : string; args : term list }

type filter = { op : R.Expr.cmp; left : term; right : term }

type t = {
  head_name : string;        (* Skolem function name, e.g. "S1.2" *)
  head_vars : string list;   (* Skolem-term arguments *)
  atoms : atom list;
  filters : filter list;
}

let atom rel args = { rel; args }
let filter op left right = { op; left; right }

let make ~head_name ~head_vars ?(filters = []) atoms =
  { head_name; head_vars; atoms; filters }

let term_vars = function Var v -> [ v ] | Const _ | Wild -> []

let atom_vars a = List.concat_map term_vars a.args

(* Variables the rule is safe in: every head variable must occur in some
   body atom. *)
let is_safe r =
  let bv = List.concat_map atom_vars r.atoms in
  List.for_all (fun v -> List.mem v bv) r.head_vars

let term_to_string = function
  | Var v -> v
  | Const c -> R.Value.to_sql c
  | Wild -> "_"

let to_string r =
  let head =
    Printf.sprintf "%s(%s)" r.head_name (String.concat ", " r.head_vars)
  in
  let atoms =
    List.map
      (fun a ->
        Printf.sprintf "%s(%s)" a.rel
          (String.concat ", " (List.map term_to_string a.args)))
      r.atoms
  in
  let filters =
    List.map
      (fun f ->
        Printf.sprintf "%s %s %s" (term_to_string f.left)
          (match f.op with
          | R.Expr.Eq -> "=" | R.Expr.Neq -> "<>" | R.Expr.Lt -> "<"
          | R.Expr.Le -> "<=" | R.Expr.Gt -> ">" | R.Expr.Ge -> ">=")
          (term_to_string f.right))
      r.filters
  in
  head ^ " :- " ^ String.concat ", " (atoms @ filters)
