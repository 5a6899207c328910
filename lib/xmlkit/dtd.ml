(* DTDs, restricted to the shape XML-publishing views need (paper Fig. 2):
   each element is either #PCDATA or a sequence of child element names,
   each with a multiplicity 1 ? + *.  These multiplicities are exactly the
   edge labels of the view tree (Sec. 3.5). *)

type multiplicity = One | Opt | Plus | Star

type content = Pcdata | Children of (string * multiplicity) list

type element_decl = { el_name : string; el_content : content }

type t = { root_name : string; decls : element_decl list }

let multiplicity_to_string = function
  | One -> ""
  | Opt -> "?"
  | Plus -> "+"
  | Star -> "*"

let multiplicity_of_string = function
  | "" -> One
  | "?" -> Opt
  | "+" -> Plus
  | "*" -> Star
  | s -> invalid_arg ("Dtd.multiplicity_of_string: " ^ s)

(* Does a run of [n] children satisfy the multiplicity? *)
let admits m n =
  match m with
  | One -> n = 1
  | Opt -> n = 0 || n = 1
  | Plus -> n >= 1
  | Star -> n >= 0

let create ~root decls =
  List.iter
    (fun d ->
      match d.el_content with
      | Pcdata -> ()
      | Children specs ->
          List.iter
            (fun (child, _) ->
              if not (List.exists (fun d' -> d'.el_name = child) decls) then
                invalid_arg
                  (Printf.sprintf "Dtd.create: %s references undeclared %s"
                     d.el_name child))
            specs)
    decls;
  if not (List.exists (fun d -> d.el_name = root) decls) then
    invalid_arg (Printf.sprintf "Dtd.create: undeclared root %s" root);
  { root_name = root; decls }

let root_name t = t.root_name
let find t name = List.find_opt (fun d -> d.el_name = name) t.decls
