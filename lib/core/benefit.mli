(** Analytical transition benefits — paper §IV-B, Eq. 1–3.

    Benefits are computed from traffic/footprint analysis and device figures
    only (no pipeline-model evaluation), which is what makes construction
    profiling-free.  All functions return a non-negative ratio; > 1 predicts
    a speed-up.  Each equation has one scalar form, shared by {!of_action}
    and {!of_edge}. *)

(** Eq. 2: caching benefit [(L_low + S/B_low) / (L_high + S/B_high)] of
    switching scheduling to the next faster memory level; 0 when already at
    the registers. *)
val caching : hw:Hardware.Gpu_spec.t -> Sched.Etir.t -> float

(** Eq. 3: virtual-thread benefit [⌈x/W⌉ / ⌈x/(V'·W)⌉] along [dim]. *)
val vthread :
  hw:Hardware.Gpu_spec.t ->
  before:Sched.Etir.t ->
  after:Sched.Etir.t ->
  dim:int ->
  float

(** Benefit of a legal transition, from scratch: {!Costmodel.Delta.of_etir}
    on both states.  0 when the successor fails the memory check (paper
    §IV-C).  The oracle {!of_edge} is tested against. *)
val of_action :
  hw:Hardware.Gpu_spec.t ->
  before:Sched.Etir.t ->
  after:Sched.Etir.t ->
  Sched.Action.t ->
  float

(** [of_edge ~hw s ~before ~parent action target] is
    [of_action ~hw ~before ~after action], bit for bit, for the legal edge
    to [after] with [target = Sched.Action.target before action], where
    [parent] is [before]'s component record — without building [after]:
    the after side comes from {!Costmodel.Delta.score_edge} into the chain's
    scratch [s]. *)
val of_edge :
  hw:Hardware.Gpu_spec.t ->
  Costmodel.Delta.scratch ->
  before:Sched.Etir.t ->
  parent:Costmodel.Delta.components ->
  Sched.Action.t ->
  int ->
  float
