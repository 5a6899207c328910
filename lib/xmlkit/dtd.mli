(** DTDs, restricted to the shape XML-publishing views use (paper
    Fig. 2): each element is #PCDATA or a sequence of child element names
    with multiplicities 1 ? + * — the same multiplicities that label
    view-tree edges. *)

type multiplicity = One | Opt | Plus | Star

type content = Pcdata | Children of (string * multiplicity) list

type element_decl = { el_name : string; el_content : content }

type t

val multiplicity_to_string : multiplicity -> string
(** ["", "?", "+", "*"]. *)

val multiplicity_of_string : string -> multiplicity
(** Inverse of {!multiplicity_to_string}; raises on anything else. *)

val admits : multiplicity -> int -> bool
(** [admits m n]: does a run of [n] children satisfy [m]? *)

val create : root:string -> element_decl list -> t
(** Raises [Invalid_argument] if the root or any referenced child is
    undeclared. *)

val root_name : t -> string
val find : t -> string -> element_decl option
