(* Functional-dependency reasoning over rule bodies.

   The paper's C1 test (Sec. 3.5) asks whether, in the relation defined by
   a child node's rule, the parent's Skolem variables functionally
   determine the child's extra variables.  We derive variable-level FDs
   from the schema (key of every atom determines the whole atom; filters
   add equalities and constant bindings) and close them with the classic
   attribute-closure algorithm — following Beeri–Bernstein, FDs only, no
   inclusion dependencies, so the check stays tractable (the paper cites
   the same restriction). *)

module SS = Set.Make (String)

type fd = { lhs : SS.t; rhs : SS.t }

let fd lhs rhs = { lhs = SS.of_list lhs; rhs = SS.of_list rhs }

(* Replace wildcards by fresh variables so every atom position is named
   (needed to state "key determines the row"). *)
let freshen_wilds (r : Rule.t) : Rule.t =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "_w%d" !counter
  in
  let atoms =
    List.map
      (fun (a : Rule.atom) ->
        {
          a with
          Rule.args =
            List.map
              (function Rule.Wild -> Rule.Var (fresh ()) | t -> t)
              a.Rule.args;
        })
      r.atoms
  in
  { r with atoms }

(* Variable-level FDs implied by the body: each atom's key variables
   determine the atom's variables; equality filters add both
   directions; var = constant is determined by the empty set. *)
let fds_of_body ~schema_of (r : Rule.t) : fd list =
  let r = freshen_wilds r in
  let of_atom (a : Rule.atom) =
    let schema : Relational.Schema.table = schema_of a.rel in
    let cols = Relational.Schema.column_names schema in
    let by_col = List.combine cols a.args in
    let var_of = function Rule.Var v -> Some v | _ -> None in
    let all_vars = List.filter_map (fun (_, t) -> var_of t) by_col in
    let key_vars =
      List.filter_map
        (fun k ->
          match List.assoc_opt k by_col with
          | Some t -> var_of t
          | None -> None)
        schema.key
    in
    (* constants in key positions only strengthen the FD; a missing key
       variable can't happen after freshening, but a Const can.  A Const
       restricts the rows, so the remaining key vars still determine the
       atom. *)
    if schema.key = [] then []
    else [ { lhs = SS.of_list key_vars; rhs = SS.of_list all_vars } ]
  in
  let of_filter (f : Rule.filter) =
    match (f.op, f.left, f.right) with
    | Relational.Expr.Eq, Rule.Var a, Rule.Var b ->
        [ fd [ a ] [ b ]; fd [ b ] [ a ] ]
    | Relational.Expr.Eq, Rule.Var a, Rule.Const _
    | Relational.Expr.Eq, Rule.Const _, Rule.Var a ->
        [ fd [] [ a ] ] (* determined by the empty set *)
    | _ -> []
  in
  List.concat_map of_atom r.atoms @ List.concat_map of_filter r.filters

(* Attribute closure. *)
let closure (fds : fd list) (start : string list) : SS.t =
  let rec go acc =
    let acc' =
      List.fold_left
        (fun acc f -> if SS.subset f.lhs acc then SS.union acc f.rhs else acc)
        acc fds
    in
    if SS.equal acc acc' then acc else go acc'
  in
  go (SS.of_list start)

(* The C1 test: within the child rule's body, do the parent's head
   variables determine all of the child's head variables? *)
let functionally_determines ~schema_of ~(child : Rule.t) (parent_vars : string list)
    (child_vars : string list) : bool =
  let fds = fds_of_body ~schema_of child in
  SS.subset (SS.of_list child_vars) (closure fds parent_vars)
