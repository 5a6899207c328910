(** The one stage list: the paper's Fig. 7 pipeline, layer by layer,
    plus the service time around it — the names of the spans, of
    [run --profile]'s nodes, of perfbench's replay layers and of the
    slow-query log's stages.

    A {!clock} holds one atomic nanosecond slot per stage, so stage
    boundaries ({!Span.with_stage}) on pool worker domains add to the
    clock of their request ({!Span.with_request}) safely. *)

type t =
  | Rxl_parser
  | View_tree
  | Planner
  | Sql_gen
  | Sql_print
  | Sql_parser
  | Physical
  | Executor
  | Tagger
  | Service  (** request wall time minus the pipeline stages *)

val all : t list
(** Every stage, in pipeline order, [Service] last. *)

val pipeline : t list
(** {!all} without [Service]: the stages that have a boundary. *)

val name : t -> string
(** ["rxl_parser"], ["view_tree"], …, ["service"]. *)

type clock

val clock : unit -> clock
(** A clock with every slot at zero. *)

val add : clock -> t -> int -> unit
(** [add c stage ns] adds [ns] nanoseconds to [stage]'s slot. *)

val ns : clock -> t -> int
