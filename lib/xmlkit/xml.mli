(** XML documents as ordered trees.

    The middleware constructs elements and character data; attributes are
    carried for generality. *)

type node = Element of element | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

type t

val element : ?attrs:(string * string) list -> string -> node list -> element
val elem : ?attrs:(string * string) list -> string -> node list -> node
(** Like {!element} but wrapped as a {!node}. *)

val text : string -> node
val document : element -> t
val root : t -> element

val count_elements : t -> int
(** Number of element nodes, root included. *)

val depth : t -> int
(** Maximum element nesting depth (root = 1). *)

val children_named : element -> string -> element list
(** Child elements with the given tag, in document order. *)

val child_elements : element -> element list
val text_content : element -> string
(** Concatenated character data directly under the element. *)

val equal_element : element -> element -> bool
val equal : t -> t -> bool

val fold_elements : ('a -> element -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all elements. *)
