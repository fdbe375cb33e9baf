(** Gensor's public optimiser API.

    Runs independent Markov construction chains (paper Algorithms 1–2),
    pools their sampled states and returns the best configuration under the
    analytical performance model. *)

type config = {
  seed : int;
  restarts : int;
  anneal : Anneal.config;
  knobs : Costmodel.Model.knobs;
  prune_dominated : bool;
      (** drop pooled candidates strictly dominated by a sibling (see
          {!Costmodel.Delta.dominates}) before the final full-model pass;
          deterministic and order-invariant *)
}

val default_config : config

(** Table VI ablations: disable virtual threads / disable backtracking
    (tree degeneration). *)

val without_vthread : config -> config
val tree_only : config -> config

type result = {
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  states_explored : int;
  candidates_evaluated : int;
  candidates_pruned : int;
      (** pooled states dropped by dominance pruning before evaluation *)
  wall_time_s : float;
}

(** [prune_dominated ~hw candidates] drops every pooled candidate whose
    dominance vector ({!Costmodel.Delta.dominance_vector}) some other
    candidate strictly dominates; survivors keep their input order.
    Candidates without a vector (launch-infeasible) are always kept.  The
    kept set is exactly the all-pairs one.  All candidates must come from
    one compute and device. *)
val prune_dominated :
  hw:Hardware.Gpu_spec.t ->
  (Sched.Etir.t * Costmodel.Delta.components) list ->
  (Sched.Etir.t * Costmodel.Delta.components) list

(** [optimize ~hw compute] runs the full construction.  [warm_start] seeds
    every chain with an existing schedule retargeted at [compute] and cuts
    the annealing budget to a quarter — the incremental re-optimisation the
    paper's ongoing-work section sketches for dynamic networks.  Raises
    [Invalid_argument] if the warm-start schedule's axis structure does not
    match [compute].

    The search runs sequentially in the calling domain; a graph's distinct
    kernels are the parallel grain ([Dnn.Runner.run_graph],
    [Pipeline.Methods.sweep]).  Results are deterministic: chain RNG
    streams are split up front in chain order, the candidate pool keeps
    insertion order, and ranking ties break on the state signature. *)
val optimize :
  ?config:config ->
  ?warm_start:Sched.Etir.t ->
  hw:Hardware.Gpu_spec.t ->
  Tensor_lang.Compute.t ->
  result
