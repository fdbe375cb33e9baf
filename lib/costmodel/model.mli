(** The analytical GPU execution model every method is evaluated against.

    Roofline-style pipeline with bank-conflict, cache-thrash, occupancy and
    wave-tail degradations; see DESIGN.md §1 for why a shared analytical
    model preserves the paper's relative results. *)

type knobs = {
  ilp_overhead : float;
  occupancy_for_peak_compute : float;
  threads_per_sm_for_peak_bandwidth : float;
  compute_ceiling : float;
  overlap_alpha : float;
  launch_overhead_s : float;
  conflict_dilution : float;
      (** fraction of shared-memory transactions that follow the conflicted
          pattern *)
  model_conflicts : bool;  (** ablation: disable the bank-conflict term *)
  model_tail : bool;  (** ablation: disable the wave-tail term *)
}

val default_knobs : knobs

(** Sentinel time (seconds) for configurations that cannot launch. *)
val infeasible_time_s : float

(** [evaluate ~hw etir] is the predicted metric record.  Raises
    [Invalid_argument] when the ETIR level count does not match the
    device. *)
val evaluate :
  ?knobs:knobs -> hw:Hardware.Gpu_spec.t -> Sched.Etir.t -> Metrics.t

(** [evaluate_with ~hw etir comps] aggregates an already-derived component
    record (see {!Delta}) into the metric record, skipping the full
    component rebuild.  Bit-for-bit equal to {!evaluate} when [comps] is a
    faithful record for [etir] (the incremental invariant, property-tested
    in test/costmodel).  No level-count check: components only exist for
    states built against [hw]. *)
val evaluate_with :
  ?knobs:knobs ->
  hw:Hardware.Gpu_spec.t ->
  Sched.Etir.t ->
  Delta.components ->
  Metrics.t

(** Figure of merit (achieved FLOP/s). *)
val score : ?knobs:knobs -> hw:Hardware.Gpu_spec.t -> Sched.Etir.t -> float
