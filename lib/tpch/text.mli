(** Word corpus for generated names, in the spirit of TPC-H dbgen's
    grammar-based text.  Part names follow dbgen's finish+material
    pattern ("plated brass", "anodized steel" — the paper's Fig. 8 uses
    exactly these). *)

val nations_pool : (string * int) array
(** (nation name, region index) pairs — 25 nations, as in TPC-H. *)

val regions_pool : string array

(** {1 Drawing random names} *)

val part_name : Rng.t -> string
val supplier_name : Rng.t -> string
val customer_name : Rng.t -> string
val address : Rng.t -> string
val phone : Rng.t -> string
val brand : Rng.t -> string
val manufacturer : Rng.t -> string
val size : Rng.t -> string
