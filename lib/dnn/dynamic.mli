(** Dynamic-shape scenarios (paper Figs. 11–12). *)

type shape_report = {
  shape_label : string;
  method_name : string;
  exec_time_s : float;
  throughput : float;
  opt_sim_s : float;
}

(** BERT-small compiled per sequence length with one method (the unfused
    layer table, through {!Runner.run_graph}). *)
val bert_per_shape :
  hw:Hardware.Gpu_spec.t ->
  Pipeline.Methods.t ->
  batch:int ->
  seqs:int list ->
  shape_report list

(** DietCode: bucket kernels tuned once per layer role across the sequence
    lengths, then dispatched per shape. *)
val bert_dietcode :
  ?buckets:int ->
  ?trials_per_bucket:int ->
  hw:Hardware.Gpu_spec.t ->
  batch:int ->
  seqs:int list ->
  unit ->
  shape_report list

(** Gensor served by a certificate-gated {!Kernel_cache}: the largest
    sequence length per operator family is constructed and certified, then
    smaller shapes are dispatched through {!Kernel_cache.dispatch} — an
    admitted shape reuses the cached schedule retargeted (zero
    construction), a refused shape pays its own construction.  Also
    returns the cache stats so callers can inspect
    [cert_hits]/[cert_rejects]. *)
val bert_gensor_certified :
  ?config:Gensor.Optimizer.config ->
  hw:Hardware.Gpu_spec.t ->
  batch:int ->
  seqs:int list ->
  unit ->
  shape_report list * Kernel_cache.stats

type phase = { width_mult : float; images : int }
type segment = { phase_label : string; opt_s : float; infer_s : float }

type timeline = {
  timeline_method : string;
  segments : segment list;
  total_s : float;
}

(** Four phases of 2000 images with channel multipliers 1.0/0.75/1.25/0.9. *)
val default_phases : phase list

val mobilenet_timeline :
  hw:Hardware.Gpu_spec.t ->
  Pipeline.Methods.t ->
  ?batch:int ->
  ?phases:phase list ->
  unit ->
  timeline
