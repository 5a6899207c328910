(** Key/value attributes attached to spans. *)

type value = Int of int | Float of float | Bool of bool | String of string
type t = (string * value) list

val int : string -> int -> string * value
val float : string -> float -> string * value
val bool : string -> bool -> string * value
val string : string -> string -> string * value
val value_to_string : value -> string

val to_json : t -> Json.t
(** An attribute list as a JSON object, in the given order. *)
