(** Plan anomaly detector: per-operator q-errors over estimated vs
    actual rows and cost, warn events for misestimates, and a human
    diagnostics report — the online counterpart of the offline
    calibration experiment.

    This module is generic: callers flatten their physical plans into
    {!sample} records (see [Physical.diagnose_samples] and
    [Middleware.diagnose_samples]); nothing here depends on the
    relational layer. *)

type sample = {
  d_stream : string;
      (** stream label, e.g. the fragment root's Skolem name *)
  d_node : int;  (** physical node id, unique within one stream's plan *)
  d_op : string;  (** operator name *)
  d_est_rows : float;  (** negative when the plan was never annotated *)
  d_act_rows : int;  (** negative when the node was never executed *)
  d_est_cost : float;
  d_act_cost : int;
  d_est_ms : float;  (** predicted own time; negative when unknown *)
  d_act_ms : float;  (** measured own time; negative when never executed *)
  d_spills : int;  (** actual external-sort spill passes (sorts only) *)
  d_leaf : bool;
      (** the operator reads no other operator (a scan): a misestimate
          here is where an error enters the plan *)
  d_shared : string;
      (** the stream whose run of this subtree was replayed here instead
          of running it (its nodes' times are then unknown); [""] when it
          ran here *)
}

type metric = Rows | Cost

type finding = {
  f_stream : string;
  f_node : int;
  f_op : string;
  f_metric : metric;
  f_est : float;
  f_act : float;
  f_qerr : float;
  f_leaf : bool;  (** from {!sample.d_leaf} *)
}

val qerror : est:float -> act:float -> float
(** [max(est/act, act/est)] with both sides clamped to >= 1; 1.00 is a
    perfect estimate. *)

val findings : ?threshold:float -> sample list -> finding list
(** Per-node q-errors at or above [threshold], worst first.  Samples
    missing an estimate or an actual (negative fields) are skipped. *)

val emit_findings : finding list -> unit
(** One ["diagnose.misestimate"] warn event per finding, carrying
    stream/node/op/metric/est/act/qerr attrs. *)

val render :
  ?threshold:float -> ?top:int -> resilience:string -> sample list -> string
(** The report: misestimate table ([top] findings, 10 by default, and
    every leaf finding past them), the [top] measured operators by
    actual work (ties by stream, then node: a table two runs of one plan
    reproduce) with their work and their predicted and measured time (a
    replayed subtree was not timed, so it is not there), the replayed subtrees, spill list, a RESILIENCE line carrying
    [resilience] (the run's own counters, e.g.
    [Middleware.resilience_summary]), event summary, GC pressure per
    operator, and the hot-path percentile table (reads the global
    event/profile collectors). *)

val report :
  ?threshold:float -> ?top:int -> resilience:string -> sample list -> string
(** {!emit_findings} on the computed findings, then {!render}. *)
