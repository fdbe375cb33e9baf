(** Uniform interface over the compared compilation methods. *)

type output = {
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  analysis_steps : int;
  tree_steps : int;
  measure_trials : int;
  wall_s : float;
}

type t = {
  name : string;
  compile : hw:Hardware.Gpu_spec.t -> Ops.Op.t -> output;
}

(** Simulated optimisation time of one compile (see {!Sim_time}). *)
val simulated_opt_time : output -> float

(** Debug-mode legality assertion: when true, every compiled schedule is run
    through {!Verify.run} and any Error-severity diagnostic raises [Failure].
    Initialised from the GENSOR_VERIFY environment variable ("1" to enable). *)
val debug_verify : bool ref

val gensor : ?config:Gensor.Optimizer.config -> ?name:string -> unit -> t

(** Table VI ablations. *)

val gensor_without_vthread : unit -> t
val gensor_tree_only : unit -> t
val roller : unit -> t
val ansor : ?n_trials:int -> unit -> t
val cublas : unit -> t

(** Eager PyTorch reference bar: cuBLAS's schedule with
    {!Vendor.Pytorch}'s per-op execution time; every step count is zero,
    so its simulated optimisation time is 0. *)
val pytorch : unit -> t

(** [to_artifact ~method_name ~hw output] packages one compiled output as a
    persistable {!Artifact.Record.t} (steps = every kind of optimisation
    step the method reported). *)
val to_artifact :
  ?seed:int ->
  ?verify:Verify.Diagnostic.t list ->
  method_name:string ->
  hw:Hardware.Gpu_spec.t ->
  output ->
  Artifact.Record.t

(** Inverse view: a loaded artifact as a compile output.  Costs are zero —
    the search was paid in the process that produced the artifact. *)
val of_artifact : Artifact.Record.t -> output

(** cuBLAS, Ansor, Roller, Gensor — the §V-A comparison set. *)
val standard : unit -> t list

(** One compiled cell of a sweep. *)
type cell = {
  cell_device : Hardware.Gpu_spec.t;
  cell_label : string;
  cell_op : Ops.Op.t;
  cell_method : string;
  cell_output : output;
}

(** [sweep ~devices ~methods ops] compiles every device x op x method
    cell, fanning the cells over the domain pool ([jobs] defaults to
    [GENSOR_JOBS]).  Results come back in device x op x method order
    regardless of the pool width. *)
val sweep :
  ?jobs:int ->
  devices:Hardware.Gpu_spec.t list ->
  methods:t list ->
  (string * Ops.Op.t) list ->
  cell list

(** One-line summary of the incremental cost-model evaluation counters
    ({!Costmodel.Delta.stats}), for sweep report footers. *)
val pp_incremental_stats : unit Fmt.t
