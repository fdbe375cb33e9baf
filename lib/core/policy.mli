(** The Markov transition policy — paper Algorithm 2.

    Benefits become a normalised transition distribution; a roulette draw
    picks the scheduling primitive to apply.  A small stay probability
    implements Algorithm 2's fall-through and makes the chain aperiodic. *)

type choice = {
  action : Sched.Action.t;
  next : Sched.Etir.t;
  next_comps : Costmodel.Delta.components;
      (** the successor's cost-model components, derived incrementally along
          the edge; carry them into the next policy step via [?comps] *)
  probability : float;
}

val stay_probability : float

(** The paper's annealing multiplier on the cache action's probability,
    [3 / (1 + e^{-(ln5/10)(t-midpoint)})], where [t] is the number of steps
    spent at the current memory level. *)
val cache_multiplier : ?midpoint:float -> iteration:int -> unit -> float

type mode = {
  vthread_enabled : bool;  (** Table VI ablation switch *)
  tree_mode : bool;  (** disable inverse tiling: degenerate to a tree *)
  cache_midpoint : float;  (** annealing-sigmoid midpoint, steps per level *)
}

(** Full graph construction: vthreads on, backtracking on. *)
val graph_mode : mode

val allowed : mode -> Sched.Action.t -> bool

(** Per-chain scoring state, reused step after step: the edge scorer's
    scratch and the candidate and weight arrays.  Build one per chain with
    {!workspace}; never share one across pool domains. *)
type workspace

(** A workspace for states of [etir]'s compute (same axes and level
    count). *)
val workspace : Sched.Etir.t -> workspace

(** The scoring pass alone: every legal allowed edge with a positive base
    benefit (the cache action's before its annealing multiplier), in
    {!Sched.Action.candidates} order.  Equal to {!Benefit.of_action} on
    each edge; no successor is built.  [?comps] is the state's own
    component record when the caller holds one. *)
val base_benefits :
  ?comps:Costmodel.Delta.components ->
  hw:Hardware.Gpu_spec.t ->
  mode:mode ->
  Sched.Etir.t ->
  (Sched.Action.t * float) list

(** Legal positively-weighted transitions with normalised probabilities
    (summing to [1 - stay_probability]), every successor built; empty when
    no action is legal.  [?comps] is the state's own component record when
    the caller already holds one (the anneal loop does): benefits are then
    computed without re-analysing the before state.  Results are identical
    either way. *)
val transitions :
  ?comps:Costmodel.Delta.components ->
  hw:Hardware.Gpu_spec.t ->
  mode:mode ->
  iteration:int ->
  Sched.Etir.t ->
  choice list

(** Roulette draw; [None] = stay in place. *)
val select : Sched.Rng.t -> choice list -> choice option

(** [draw ws rng ... etir] is [select rng (transitions ... etir)] over the
    same scoring pass: same floats, same roulette weights, same RNG
    consumption — bit-identical draws — but only the drawn successor is
    built.  The annealing loop's hot path; [ws] is the chain's
    workspace. *)
val draw :
  workspace ->
  Sched.Rng.t ->
  ?comps:Costmodel.Delta.components ->
  hw:Hardware.Gpu_spec.t ->
  mode:mode ->
  iteration:int ->
  Sched.Etir.t ->
  choice option
