(* Whole-device description used by the cost model and by Gensor's
   hardware-aware transition probabilities.

   The memory hierarchy is stored from registers (index 0) outwards to DRAM
   (last index).  The paper's cache-level count [L] excludes the per-thread
   register level and the DRAM level: on an NVIDIA GPU the schedulable cache
   levels are shared memory and L2, so [L = 2]. *)

type t = {
  name : string;
  sm_count : int;
  cores_per_sm : int;
  clock_ghz : float;
  warp_size : int;
  max_threads_per_sm : int;
  max_threads_per_block : int;
  registers_per_sm : int;       (* 32-bit registers *)
  power_watts : float;
  levels : Mem_level.t array;   (* registers .. DRAM, ordered fast to slow *)
}

let v ~name ~sm_count ~cores_per_sm ~clock_ghz ~warp_size ~max_threads_per_sm
    ~max_threads_per_block ~registers_per_sm ~power_watts ~levels =
  if sm_count <= 0 then invalid_arg "Gpu_spec.v: sm_count <= 0";
  if cores_per_sm <= 0 then invalid_arg "Gpu_spec.v: cores_per_sm <= 0";
  if clock_ghz <= 0. then invalid_arg "Gpu_spec.v: clock_ghz <= 0";
  if Array.length levels < 3 then
    invalid_arg "Gpu_spec.v: need at least registers, one cache, DRAM";
  (match Mem_level.scope levels.(0) with
   | Mem_level.Per_thread -> ()
   | Mem_level.Per_block | Mem_level.Device ->
     invalid_arg "Gpu_spec.v: level 0 must be the per-thread register file");
  (match Mem_level.scope levels.(Array.length levels - 1) with
   | Mem_level.Device -> ()
   | Mem_level.Per_thread | Mem_level.Per_block ->
     invalid_arg "Gpu_spec.v: last level must be device DRAM");
  { name; sm_count; cores_per_sm; clock_ghz; warp_size; max_threads_per_sm;
    max_threads_per_block; registers_per_sm; power_watts; levels }

let name t = t.name
let sm_count t = t.sm_count
let cores_per_sm t = t.cores_per_sm
let clock_ghz t = t.clock_ghz
let warp_size t = t.warp_size
let max_threads_per_sm t = t.max_threads_per_sm
let max_threads_per_block t = t.max_threads_per_block
let registers_per_sm t = t.registers_per_sm
let power_watts t = t.power_watts
let levels t = t.levels
let num_levels t = Array.length t.levels
(* Inlined: the cost model checks capacities per scored edge. *)
let[@inline] level t i =
  if i < 0 || i >= Array.length t.levels then
    invalid_arg "Gpu_spec.level: index out of range";
  t.levels.(i)

(* Number of cache levels a schedule can tile for: everything strictly
   between the register file and DRAM.  This is the paper's [L]. *)
let schedulable_cache_levels t = Array.length t.levels - 2

let[@inline] registers_level t = t.levels.(0)

(* Peak single-precision throughput in FLOP/s assuming one FMA (2 FLOPs) per
   core per cycle, the convention used by NVIDIA spec sheets. *)
let peak_flops t =
  2.0 *. float_of_int (t.sm_count * t.cores_per_sm) *. t.clock_ghz *. 1e9

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %d SMs x %d cores @ %.2f GHz (peak %.1f TFLOPS)@,%a@]"
    t.name t.sm_count t.cores_per_sm t.clock_ghz (peak_flops t /. 1e12)
    Fmt.(array ~sep:(any "@,") Mem_level.pp)
    t.levels
