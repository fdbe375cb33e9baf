(* SM occupancy and wave (tail) efficiency.

   Resident blocks per SM are limited by shared-memory usage, thread slots,
   register usage and a hard scheduler cap; occupancy is the resident-thread
   fraction.  The tail term models the last partially-filled wave of blocks —
   the load-balancing objective a single-objective constructor ignores. *)

type t = {
  blocks_per_sm : int;       (* resident blocks one SM can hold; 0 = does not fit *)
  sm_occupancy : float;      (* resident threads / max threads, in [0,1] *)
  tail_efficiency : float;   (* useful fraction of the last wave, in (0,1] *)
  waves : int;               (* number of block waves over the whole GPU *)
  global_threads : int;      (* concurrently resident threads, device-wide *)
}

let hard_block_cap = 16

(* Resident blocks per SM from the launch shape and the level-0/1
   footprints; 0 when the block does not fit at all. *)
let resident ~(hw : Hardware.Gpu_spec.t) ~tpb ~smem_bytes
    ~reg_bytes_per_thread =
  let smem = Hardware.Gpu_spec.level hw 1 in
  let by_smem =
    if smem_bytes = 0 then hard_block_cap
    else Hardware.Mem_level.capacity_bytes smem / smem_bytes
  in
  let by_threads = Hardware.Gpu_spec.max_threads_per_sm hw / Int.max 1 tpb in
  let by_regs =
    let reg_file_bytes = Hardware.Gpu_spec.registers_per_sm hw * 4 in
    reg_file_bytes / Int.max 1 (reg_bytes_per_thread * tpb)
  in
  let fits_block = tpb <= Hardware.Gpu_spec.max_threads_per_block hw in
  if not fits_block then 0
  else Int.min (Int.min by_smem by_threads) (Int.min by_regs hard_block_cap)

(* Resident-thread fraction for [resident > 0] blocks per SM: a small grid
   cannot fill every SM's resident slots. *)
let occupancy_of_resident ~(hw : Hardware.Gpu_spec.t) ~tpb ~grid resident =
  let sm_count = Hardware.Gpu_spec.sm_count hw in
  let per_sm_available = (grid + sm_count - 1) / sm_count in
  let resident_actual = Int.min resident per_sm_available in
  Float.min 1.0
    (float_of_int (resident_actual * tpb)
    /. float_of_int (Hardware.Gpu_spec.max_threads_per_sm hw))

let sm_occupancy ~hw ~tpb ~grid ~smem_bytes ~reg_bytes_per_thread =
  let resident = resident ~hw ~tpb ~smem_bytes ~reg_bytes_per_thread in
  if resident <= 0 then 0.0 else occupancy_of_resident ~hw ~tpb ~grid resident

(* Core computation over the launch shape and the level-0/1 footprints;
   [of_etir] derives those from the state, incremental evaluation feeds in
   footprints it already holds. *)
let of_parts ~(hw : Hardware.Gpu_spec.t) ~tpb ~grid ~smem_bytes
    ~reg_bytes_per_thread =
  let resident = resident ~hw ~tpb ~smem_bytes ~reg_bytes_per_thread in
  if resident <= 0 then
    { blocks_per_sm = 0; sm_occupancy = 0.0; tail_efficiency = 1.0; waves = 0;
      global_threads = 0 }
  else begin
    let sm_count = Hardware.Gpu_spec.sm_count hw in
    let occ = occupancy_of_resident ~hw ~tpb ~grid resident in
    let wave_capacity = resident * sm_count in
    let waves = (grid + wave_capacity - 1) / wave_capacity in
    let tail =
      float_of_int grid /. float_of_int (waves * wave_capacity)
    in
    let global_threads = Int.min grid (resident * sm_count) * tpb in
    { blocks_per_sm = resident; sm_occupancy = occ;
      tail_efficiency = Float.max tail 1e-6; waves; global_threads }
  end

let of_etir etir ~(hw : Hardware.Gpu_spec.t) =
  of_parts ~hw
    ~tpb:(Sched.Etir.threads_per_block etir)
    ~grid:(Sched.Etir.grid_blocks etir)
    ~smem_bytes:(Footprint.bytes_at etir ~level:1)
    ~reg_bytes_per_thread:(Footprint.bytes_at etir ~level:0)
