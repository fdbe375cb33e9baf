(** End-to-end network evaluation (paper §V-C): compile each distinct
    kernel with a method, charge nodes per occurrence.  Flat layer tables
    run as [run_graph ~fuse:false (Graph.of_model m)].

    Pass [?store] to probe and fill a persistent {!Artifact.Store}: kernels
    already tuned for this (device, method) pair skip optimisation and
    charge zero compile time. *)

type graph_report = {
  g_model : string;
  g_method : string;
  g_fused : bool;
  g_compile_wall_s : float;
  g_compile_sim_s : float;
      (** summed in first-occurrence node order *)
  g_e2e_s : float;  (** end-to-end latency from the graph schedule *)
  g_critical_path_s : float;
      (** longest dependency-weighted chain — multi-stream headroom *)
  g_throughput : float;
  g_kernels : int;  (** distinct kernels compiled *)
  g_cached : int;
  g_nodes : int;
  g_fusion_groups : int;
  g_folded : int;  (** op instances folded into anchors *)
  g_refused : int;
  g_peak_bytes : int;  (** peak intermediate footprint *)
  g_sched_levels : int;
}

(** End-to-end evaluation over the graph: fuse (unless [~fuse:false]), plan
    memory, compile the distinct kernels the store misses in one fan-out on
    the worker pool ([?jobs], order-deterministic — reports are identical
    under any [GENSOR_JOBS]), then charge latency from the graph schedule.
    Counters: [graph.sched.levels], [graph.sched.compiled] plus the
    [graph.fuse.*] family. *)
val run_graph :
  ?store:Artifact.Store.t ->
  ?jobs:int ->
  ?fuse:bool ->
  hw:Hardware.Gpu_spec.t ->
  Pipeline.Methods.t ->
  Graph.t ->
  graph_report

val pp_graph_report : graph_report Fmt.t

(** Table-IV-style fused vs unfused comparison on one graph. *)
type fusion_comparison = {
  fc_fused : graph_report;
  fc_unfused : graph_report;
}

val compare_fusion :
  ?store:Artifact.Store.t ->
  ?jobs:int ->
  hw:Hardware.Gpu_spec.t ->
  Pipeline.Methods.t ->
  Graph.t ->
  fusion_comparison

(** Unfused e2e latency over fused — > 1 when fusion wins. *)
val fusion_speedup : fusion_comparison -> float
