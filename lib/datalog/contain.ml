(* The C2 test of Sec. 3.5 — "every parent tuple has at least one child
   tuple" — decided conservatively by chasing the child's extra atoms
   with NOT NULL foreign keys and declared inclusion dependencies.  The
   paper notes the general problem is undecidable and prescribes exactly
   this kind of restricted, sound-but-incomplete check. *)

module R = Relational

let atom_mem a atoms = List.exists (fun b -> b = a) atoms

(* Positional association of a relation's columns with an atom's args. *)
let args_by_col ~schema_of (a : Rule.atom) =
  let schema : R.Schema.table = schema_of a.rel in
  List.combine (R.Schema.column_names schema) a.args

let always_extends ~schema_of ~(inclusions : R.Schema.inclusion list)
    ~(parent : Rule.t) ~(child : Rule.t) : bool =
  let delta =
    List.filter (fun a -> not (atom_mem a parent.Rule.atoms)) child.Rule.atoms
  in
  let delta_filters =
    List.filter
      (fun f -> not (List.mem f parent.Rule.filters))
      child.Rule.filters
  in
  if delta = [] && delta_filters = [] then true
  else if delta_filters <> [] then false
  else begin
    (* Chase: a delta atom is reachable if some safe atom guarantees a
       matching row — via a NOT NULL foreign key onto the atom's key
       (exactly one row), or via a declared inclusion dependency (at
       least one row).  Terms already bound may only appear at the
       matched positions; remaining positions must introduce fresh
       variables or wildcards. *)
    let bound = ref (List.sort_uniq compare (List.concat_map Rule.atom_vars parent.Rule.atoms)) in
    let is_bound v = List.mem v !bound in
    let fk_witness safe (a : Rule.atom) =
      let a_cols = args_by_col ~schema_of a in
      let a_schema : R.Schema.table = schema_of a.rel in
      List.exists
        (fun (b : Rule.atom) ->
          let b_schema : R.Schema.table = schema_of b.rel in
          let b_cols = args_by_col ~schema_of b in
          List.exists
            (fun (fk : R.Schema.foreign_key) ->
              fk.ref_table = a.rel
              && fk.ref_cols = a_schema.key
              && List.for_all2
                   (fun fk_col ref_col ->
                     let src = List.assoc_opt fk_col b_cols in
                     let dst = List.assoc_opt ref_col a_cols in
                     let not_null =
                       match R.Schema.find_column b_schema fk_col with
                       | Some c -> not c.R.Schema.nullable
                       | None -> false
                     in
                     not_null
                     &&
                     match (src, dst) with
                     | Some (Rule.Var x), Some (Rule.Var y) ->
                         x = y && is_bound x
                     | Some (Rule.Const cx), Some (Rule.Const cy) ->
                         R.Value.equal cx cy
                     | _ -> false)
                   fk.fk_cols fk.ref_cols)
            b_schema.foreign_keys)
        safe
    in
    let inclusion_witness safe (a : Rule.atom) =
      let a_cols = args_by_col ~schema_of a in
      List.exists
        (fun (inc : R.Schema.inclusion) ->
          inc.inc_ref_table = a.rel
          && List.exists
               (fun (b : Rule.atom) ->
                 b.rel = inc.inc_table
                 &&
                 let b_cols = args_by_col ~schema_of b in
                 List.for_all2
                   (fun src_col ref_col ->
                     match
                       (List.assoc_opt src_col b_cols, List.assoc_opt ref_col a_cols)
                     with
                     | Some (Rule.Var x), Some (Rule.Var y) -> x = y && is_bound x
                     | Some (Rule.Const cx), Some (Rule.Const cy) ->
                         R.Value.equal cx cy
                     | _ -> false)
                   inc.inc_cols inc.inc_ref_cols)
               safe)
        inclusions
    in
    let fresh_positions_ok (a : Rule.atom) matched_ok =
      (* every var of [a] must be either bound (and matched by the
         witness) or fresh; a bound var at an unmatched position could
         conflict with the guaranteed row. *)
      List.for_all
        (fun v -> (not (is_bound v)) || matched_ok v)
        (Rule.atom_vars a)
    in
    let matched_vars_of (a : Rule.atom) =
      (* variables at the key positions of [a] (the positions a witness
         matches on). *)
      let a_schema : R.Schema.table = schema_of a.rel in
      let a_cols = args_by_col ~schema_of a in
      List.filter_map
        (fun k ->
          match List.assoc_opt k a_cols with
          | Some (Rule.Var v) -> Some v
          | _ -> None)
        a_schema.key
      @ List.concat_map
          (fun (inc : R.Schema.inclusion) ->
            if inc.inc_ref_table = a.rel then
              List.filter_map
                (fun c ->
                  match List.assoc_opt c a_cols with
                  | Some (Rule.Var v) -> Some v
                  | _ -> None)
                inc.inc_ref_cols
            else [])
          inclusions
    in
    let rec chase remaining safe =
      if remaining = [] then true
      else
        let ready =
          List.filter
            (fun a ->
              let mv = matched_vars_of a in
              fresh_positions_ok a (fun v -> List.mem v mv)
              && (fk_witness safe a || inclusion_witness safe a))
            remaining
        in
        match ready with
        | [] -> false
        | _ ->
            List.iter
              (fun a ->
                bound :=
                  List.sort_uniq compare (Rule.atom_vars a @ !bound))
              ready;
            chase
              (List.filter (fun a -> not (List.mem a ready)) remaining)
              (ready @ safe)
    in
    chase delta parent.Rule.atoms
  end
