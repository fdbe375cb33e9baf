(** Search-based auto-scheduling baseline (Ansor, OSDI'20).

    Evolutionary search over power-of-two tile chains; every evaluated
    candidate corresponds to a hardware measurement in the real system, so
    [trials] is the quantity optimisation time scales with. *)

type config = {
  seed : int;
  n_trials : int;
  population : int;
  mutation_rate : float;
  batch : int;
      (** candidates generated (and scored as one batch) per generation;
          clamped to the remaining trial budget *)
}

val default_config : config

type result = {
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  trials : int;
  wall_time_s : float;
}

(** [search ~hw compute] runs the generational evolutionary loop in the
    calling domain; a graph's distinct kernels are the parallel grain
    ([Dnn.Runner.run_graph], [Pipeline.Methods.sweep]).  RNG draws and
    population updates happen in a fixed order, so results are
    deterministic. *)
val search :
  ?config:config ->
  ?knobs:Costmodel.Model.knobs ->
  hw:Hardware.Gpu_spec.t ->
  Tensor_lang.Compute.t ->
  result
