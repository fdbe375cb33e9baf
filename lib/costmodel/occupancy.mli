(** SM occupancy and wave-tail efficiency of an ETIR configuration. *)

type t = {
  blocks_per_sm : int;
      (** resident blocks one SM holds; 0 when the block does not fit at all *)
  sm_occupancy : float;  (** resident-thread fraction, in [0,1] *)
  tail_efficiency : float;
      (** useful fraction of the final block wave, in (0,1] *)
  waves : int;  (** block waves across the device *)
  global_threads : int;  (** concurrently resident threads, device-wide *)
}

(** Occupancy from an explicit launch shape and level-0/1 footprints —
    what {!of_etir} derives from the state; incremental evaluation calls
    this with footprints it already holds. *)
val of_parts :
  hw:Hardware.Gpu_spec.t ->
  tpb:int ->
  grid:int ->
  smem_bytes:int ->
  reg_bytes_per_thread:int ->
  t

(** [(of_parts ...).sm_occupancy] alone, without building the record: the
    edge scorer's form. *)
val sm_occupancy :
  hw:Hardware.Gpu_spec.t ->
  tpb:int ->
  grid:int ->
  smem_bytes:int ->
  reg_bytes_per_thread:int ->
  float

val of_etir : Sched.Etir.t -> hw:Hardware.Gpu_spec.t -> t
