(** Whole-GPU hardware description.

    Gensor's transition probabilities are "guided by the architecture of the
    target hardware, represented by computing and memory features" (paper
    §III).  This module is that representation: compute configuration plus an
    ordered memory hierarchy from the per-thread register file out to DRAM. *)

type t

(** [v ~name ... ~levels] builds a device description.  [levels] must be
    ordered fast-to-slow, start with a [Per_thread] register level and end with
    a [Device] DRAM level; at least one cache level must sit in between.
    Raises [Invalid_argument] otherwise. *)
val v :
  name:string ->
  sm_count:int ->
  cores_per_sm:int ->
  clock_ghz:float ->
  warp_size:int ->
  max_threads_per_sm:int ->
  max_threads_per_block:int ->
  registers_per_sm:int ->
  power_watts:float ->
  levels:Mem_level.t array ->
  t

val name : t -> string
val sm_count : t -> int
val cores_per_sm : t -> int
val clock_ghz : t -> float
val warp_size : t -> int
val max_threads_per_sm : t -> int
val max_threads_per_block : t -> int
val registers_per_sm : t -> int
val power_watts : t -> float

val levels : t -> Mem_level.t array
val num_levels : t -> int

(** [level t i] is the [i]-th level, 0 = registers.  Raises [Invalid_argument]
    when out of range. *)
val level : t -> int -> Mem_level.t

(** Number of cache levels between registers and DRAM — the paper's [L]
    (2 on NVIDIA GPUs: shared memory and L2). *)
val schedulable_cache_levels : t -> int

val registers_level : t -> Mem_level.t

(** Peak fp32 throughput in FLOP/s (2 FLOPs per core-cycle). *)
val peak_flops : t -> float

val pp : t Fmt.t
