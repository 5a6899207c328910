(** XML serialization. *)

val escape_into : Buffer.t -> string -> unit
(** Appends the string with the five XML-special characters escaped as
    entities. *)

val output_escaped : out_channel -> string -> unit
(** Writes the string escaped as {!escape_into} does. *)

val next_special : string -> int -> int
(** [next_special s i] is the position of the first XML-special
    character of [s] at or after [i], or [String.length s]: the end of a
    run an escaper copies as it is. *)

val entity : char -> string
(** The entity an XML-special character is escaped as. *)

val to_string : Xml.t -> string
(** Compact rendering; empty elements use self-closing tags. *)

val to_pretty_string : Xml.t -> string
(** Indented rendering (2 spaces per level); text-only elements stay on
    one line. *)

val byte_size : Xml.t -> int
(** Size of the compact rendering in bytes. *)
