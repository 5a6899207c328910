(** Global observability switch.

    Gates every span and event site in the pipeline behind one boolean,
    so disabled instrumentation costs a single test. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Runs [f] with the switch forced to [b], restoring the previous state
    afterwards (used by tests). *)
