(* Capacity legality of an ETIR state — the paper's "memory check for each
   transition: if memory required for the configuration exceeds the cache
   capacity, the probability is directly set to 0" (§IV-C). *)

type violation = {
  level : int;
  required_bytes : int;
  capacity_bytes : int;
  what : string;
}

let check etir ~(hw : Hardware.Gpu_spec.t) =
  if Sched.Etir.num_levels etir <> Hardware.Gpu_spec.schedulable_cache_levels hw
  then
    invalid_arg
      "Mem_check.check: ETIR level count does not match the device hierarchy";
  let violations = ref [] in
  let add level required capacity what =
    if required > capacity then
      violations :=
        { level; required_bytes = required; capacity_bytes = capacity; what }
        :: !violations
  in
  (* Registers: the per-thread tile must fit one thread's register slice. *)
  let reg = Hardware.Gpu_spec.registers_level hw in
  add 0
    (Footprint.bytes_at etir ~level:0)
    (Hardware.Mem_level.capacity_bytes reg)
    "per-thread registers";
  (* Shared memory: one block's staged tiles must fit an SM. *)
  let smem = Hardware.Gpu_spec.level hw 1 in
  add 1
    (Footprint.bytes_at etir ~level:1)
    (Hardware.Mem_level.capacity_bytes smem)
    "shared memory per block";
  (* Outer caches: the wave tile's working set must fit the cache. *)
  for level = 2 to Sched.Etir.num_levels etir do
    let cache = Hardware.Gpu_spec.level hw level in
    add level
      (Footprint.bytes_at etir ~level)
      (Hardware.Mem_level.capacity_bytes cache)
      (Hardware.Mem_level.name cache)
  done;
  (* Launch limits (level -1): legality of the final kernel, but transient
     violations are expected mid-construction while block and thread tiles
     grow at different times. *)
  let tpb = Sched.Etir.threads_per_block etir in
  if tpb > Hardware.Gpu_spec.max_threads_per_block hw then
    violations :=
      { level = -1; required_bytes = tpb;
        capacity_bytes = Hardware.Gpu_spec.max_threads_per_block hw;
        what = "threads per block" }
      :: !violations;
  let block_reg_bytes = Footprint.bytes_at etir ~level:0 * tpb in
  let reg_file_bytes = Hardware.Gpu_spec.registers_per_sm hw * 4 in
  if block_reg_bytes > reg_file_bytes then
    violations :=
      { level = -1; required_bytes = block_reg_bytes;
        capacity_bytes = reg_file_bytes; what = "register file per block" }
      :: !violations;
  List.rev !violations

let ok etir ~hw = check etir ~hw = []

(* Cache-capacity legality only, ignoring launch limits.  Construction passes
   through launch-infeasible states (a block tile grows before its thread
   tile exists, transiently exceeding the thread-per-block cap); those states
   are filtered at final selection, not during traversal. *)
let ok_capacity etir ~hw =
  List.for_all (fun v -> v.level < 0) (check etir ~hw)

(* [ok_capacity] from an already-computed footprint vector (levels 0..L), as
   incremental evaluation carries one — avoids re-deriving the interval
   analysis. *)
let ok_capacity_fp ~(hw : Hardware.Gpu_spec.t) (footprints : int array) =
  let num_levels = Array.length footprints - 1 in
  let fits level capacity_of =
    footprints.(level) <= Hardware.Mem_level.capacity_bytes capacity_of
  in
  let rec caches level =
    level > num_levels
    || (fits level (Hardware.Gpu_spec.level hw level) && caches (level + 1))
  in
  fits 0 (Hardware.Gpu_spec.registers_level hw) && caches 1

(* Full legality ([ok]) from a footprint vector: the capacity checks above
   plus the launch limits, whose only footprint input is the level-0 slot. *)
let ok_fp etir ~(hw : Hardware.Gpu_spec.t) ~footprints =
  ok_capacity_fp ~hw footprints
  &&
  let tpb = Sched.Etir.threads_per_block etir in
  tpb <= Hardware.Gpu_spec.max_threads_per_block hw
  && footprints.(0) * tpb <= Hardware.Gpu_spec.registers_per_sm hw * 4

let pp_violation ppf v =
  if v.level < 0 then
    Fmt.pf ppf "launch limit (%s): %d exceeds the cap of %d" v.what
      v.required_bytes v.capacity_bytes
  else
    Fmt.pf ppf "level %d (%s): %d bytes exceed the %d-byte capacity" v.level
      v.what v.required_bytes v.capacity_bytes
