(** Greedy model-guided local search over scheduling action edges.

    [greedy ~hw etir] follows the steepest strictly-improving legal edge up
    to [budget] steps; returns the refined state, its metrics and the number
    of model evaluations performed.  Pass [?metrics] when the start state is
    already scored to skip re-evaluating it (the count then covers successor
    evaluations only).  Neighbours are scored with {!Model.evaluate_with}
    on components derived incrementally along each edge. *)

val greedy :
  ?knobs:Model.knobs ->
  ?budget:int ->
  ?metrics:Metrics.t ->
  hw:Hardware.Gpu_spec.t ->
  Sched.Etir.t ->
  Sched.Etir.t * Metrics.t * int
