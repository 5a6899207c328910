(* SQL AST -> text.  The middleware ships SQL text to the engine, so this
   printer (with Sql_parser) must round-trip every query the generator can
   produce; tests enforce that. *)

let dir_name = function Sql.Asc -> "ASC" | Sql.Desc -> "DESC"

let join_name = function
  | Sql.Inner -> "JOIN"
  | Sql.Left_outer -> "LEFT OUTER JOIN"

let rec print_table_ref buf = function
  | Sql.Table { name; alias } ->
      Buffer.add_string buf name;
      if alias <> name then (
        Buffer.add_string buf " AS ";
        Buffer.add_string buf alias)
  | Sql.Derived { query; alias } ->
      Buffer.add_char buf '(';
      print_query buf query;
      Buffer.add_string buf ") AS ";
      Buffer.add_string buf alias
  | Sql.Join { left; kind; right; on } ->
      print_table_ref buf left;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (join_name kind);
      Buffer.add_char buf ' ';
      (match right with
      | Sql.Join _ ->
          Buffer.add_char buf '(';
          print_table_ref buf right;
          Buffer.add_char buf ')'
      | _ -> print_table_ref buf right);
      Buffer.add_string buf " ON ";
      Buffer.add_string buf (Expr.to_sql on)

and print_select buf (s : Sql.select) =
  Buffer.add_string buf "SELECT ";
  List.iteri
    (fun i (it : Sql.select_item) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Expr.to_sql it.expr);
      Buffer.add_string buf " AS ";
      Buffer.add_string buf it.alias)
    s.items;
  (match s.from with
  | [] -> ()
  | from ->
      Buffer.add_string buf " FROM ";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_string buf ", ";
          print_table_ref buf r)
        from);
  match s.where with
  | None -> ()
  | Some w ->
      Buffer.add_string buf " WHERE ";
      Buffer.add_string buf (Expr.to_sql w)

and print_body buf = function
  | Sql.Select s -> print_select buf s
  | Sql.Union_all (a, b) ->
      Buffer.add_char buf '(';
      print_body buf a;
      Buffer.add_string buf ") UNION ALL (";
      print_body buf b;
      Buffer.add_char buf ')'

and print_query buf (q : Sql.query) =
  print_body buf q.body;
  match q.order_by with
  | [] -> ()
  | keys ->
      Buffer.add_string buf " ORDER BY ";
      List.iteri
        (fun i (e, d) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Expr.to_sql e);
          if d = Sql.Desc then (
            Buffer.add_char buf ' ';
            Buffer.add_string buf (dir_name d)))
        keys

let to_string q =
  let buf = Buffer.create 256 in
  print_query buf q;
  Buffer.contents buf

(* Indented rendering for humans (plan explorer example, logs).  Only
   parentheses that open a SELECT introduce indentation; expression parens
   are left inline. *)
let to_pretty_string q =
  let s = to_string q in
  let buf = Buffer.create (String.length s + 64) in
  let depth = ref 0 in
  let stack = ref [] in
  let newline () =
    Buffer.add_char buf '\n';
    for _ = 1 to !depth * 2 do
      Buffer.add_char buf ' '
    done
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '(' when !i + 7 <= n && String.sub s (!i + 1) 6 = "SELECT" ->
        Buffer.add_char buf '(';
        stack := true :: !stack;
        incr depth;
        newline ()
    | '(' ->
        stack := false :: !stack;
        Buffer.add_char buf '('
    | ')' -> (
        match !stack with
        | true :: rest ->
            stack := rest;
            decr depth;
            newline ();
            Buffer.add_char buf ')'
        | false :: rest ->
            stack := rest;
            Buffer.add_char buf ')'
        | [] -> Buffer.add_char buf ')')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf
