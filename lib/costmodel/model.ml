(* The analytical GPU execution model.

   Roofline-style pipeline: a kernel's time is the maximum of its compute
   time and the service time of each memory level, plus launch overhead.
   Service times degrade with bank conflicts (shared memory), cache
   thrashing (tiles that exceed a level's capacity lose their reuse) and low
   occupancy (an underfilled device cannot saturate bandwidth).  Every
   compilation method in this repository is evaluated against this one model,
   so relative results reflect the construction algorithms, not the device
   (see DESIGN.md §1).

   Traffic into ETIR level [l] is serviced by hardware level [l+1]:
   register loads by shared memory, shared-memory fills by L2, L2 fills by
   DRAM. *)

type knobs = {
  ilp_overhead : float;
      (* per-thread issue overhead, in FLOPs; small thread tiles starve ILP *)
  occupancy_for_peak_compute : float;
      (* occupancy needed to saturate the ALUs *)
  threads_per_sm_for_peak_bandwidth : float;
      (* device-wide concurrent threads per SM needed to saturate memory *)
  compute_ceiling : float;
      (* fraction of spec-sheet peak reachable by real instruction streams *)
  overlap_alpha : float;
      (* fraction of the non-bottleneck stages' time that is NOT hidden
         behind the bottleneck (0 = perfect overlap, 1 = fully serial) *)
  launch_overhead_s : float;
  conflict_dilution : float;
      (* fraction of shared-memory transactions following the conflicted
         pattern *)
  model_conflicts : bool;  (* ablation switch: bank-conflict term *)
  model_tail : bool;       (* ablation switch: wave-tail term *)
}

let default_knobs = {
  ilp_overhead = 8.0;
  occupancy_for_peak_compute = 0.35;
  threads_per_sm_for_peak_bandwidth = 128.0;
  compute_ceiling = 0.85;
  overlap_alpha = 0.15;
  launch_overhead_s = 3e-6;
  conflict_dilution = 0.05;
  model_conflicts = true;
  model_tail = true;
}

let infeasible_time_s = 3600.0

(* The arithmetic tail of the model: from a component record to the metric
   record.  [evaluate] is [aggregate] over a full component build
   ([Delta.of_etir]); incremental evaluation is [aggregate] over
   [Delta.child].  Both paths feed the identical expressions below, which is
   what makes them bit-for-bit equal (tested in test/costmodel). *)
let aggregate ?(knobs = default_knobs) ~(hw : Hardware.Gpu_spec.t) etir
    (comps : Delta.components) =
  let total_flops = comps.Delta.total_flops in
  let occ = comps.Delta.occ in
  (* A fresh copy per call: Metrics exposes the array and callers must not
     alias the frozen component record. *)
  let footprints = Array.copy comps.Delta.footprint in
  let num_levels = Sched.Etir.num_levels etir in
  let traffic = Array.copy comps.Delta.traffic in
  (* DRAM traffic is floored at the compulsory minimum. *)
  traffic.(num_levels) <- Float.max traffic.(num_levels) comps.Delta.compulsory;
  let conflict =
    if knobs.model_conflicts then
      1.0 +. ((comps.Delta.conflict_raw -. 1.0) *. knobs.conflict_dilution)
    else 1.0
  in
  if occ.Occupancy.blocks_per_sm = 0 then
    { Metrics.exec_time_s = infeasible_time_s;
      achieved_flops = total_flops /. infeasible_time_s;
      compute_throughput = 0.0; sm_occupancy = 0.0; mem_busy = 0.0;
      l2_hit_rate = 0.0; dram_bytes = traffic.(num_levels);
      l2_bytes = (if num_levels >= 1 then traffic.(1) else 0.0);
      smem_bytes = traffic.(0); bank_conflict_factor = conflict;
      threads_per_block = Sched.Etir.threads_per_block etir;
      grid_blocks = Sched.Etir.grid_blocks etir; footprints }
  else begin
    let sm_occ = occ.Occupancy.sm_occupancy in
    (* Memory bandwidth saturates with *device-wide* concurrent threads: a
       grid covering few SMs cannot pull full DRAM bandwidth no matter how
       full those SMs are. *)
    let bw_eff =
      let needed =
        knobs.threads_per_sm_for_peak_bandwidth
        *. float_of_int (Hardware.Gpu_spec.sm_count hw)
      in
      (* Square-root saturation: latency hiding improves quickly with the
         first threads and flattens near the knee. *)
      Float.max 0.02
        (Float.min 1.0
           (sqrt (float_of_int occ.Occupancy.global_threads /. needed)))
    in
    (* Reuse collapses at a level whose tile exceeds its capacity: charge the
       incoming traffic the overflow factor. *)
    let thrash level =
      let cap =
        Hardware.Mem_level.capacity_bytes (Hardware.Gpu_spec.level hw level)
      in
      Float.max 1.0 (float_of_int footprints.(level) /. float_of_int cap)
    in
    let mem_time level =
      (* Traffic into ETIR level [level] serviced by hw level [level+1]. *)
      let service = Hardware.Gpu_spec.level hw (level + 1) in
      let bw = Hardware.Mem_level.bandwidth_gbs service *. 1e9 *. bw_eff in
      let base = traffic.(level) /. bw in
      let base = if level = 0 then base *. conflict else base in
      base *. thrash level
    in
    let mem_times = Array.init (num_levels + 1) mem_time in
    let compute_time =
      let chunk = float_of_int comps.Delta.chunk_flops in
      let ilp_eff = chunk /. (chunk +. knobs.ilp_overhead) in
      let occ_eff =
        Float.min 1.0 (sm_occ /. knobs.occupancy_for_peak_compute)
      in
      let tail = if knobs.model_tail then occ.Occupancy.tail_efficiency else 1.0 in
      let rate =
        Hardware.Gpu_spec.peak_flops hw *. knobs.compute_ceiling *. occ_eff
        *. ilp_eff *. tail
      in
      total_flops /. Float.max rate 1.0
    in
    let busiest_mem = Array.fold_left Float.max 0.0 mem_times in
    (* Pipeline stages overlap, but not perfectly: a slice of the
       non-bottleneck stages leaks past the bottleneck. *)
    let all_times = compute_time :: Array.to_list mem_times in
    let total = List.fold_left ( +. ) 0.0 all_times in
    let bottleneck = Float.max compute_time busiest_mem in
    let exec_time_s =
      bottleneck
      +. (knobs.overlap_alpha *. (total -. bottleneck))
      +. knobs.launch_overhead_s
    in
    let l2_requests = if num_levels >= 1 then traffic.(1) else traffic.(0) in
    let l2_hit_rate =
      if l2_requests <= 0.0 then 0.0
      else
        Float.max 0.0 (Float.min 1.0 (1.0 -. (traffic.(num_levels) /. l2_requests)))
    in
    let achieved = total_flops /. exec_time_s in
    { Metrics.exec_time_s; achieved_flops = achieved;
      compute_throughput = achieved /. Hardware.Gpu_spec.peak_flops hw;
      sm_occupancy = sm_occ;
      mem_busy = busiest_mem /. exec_time_s;
      l2_hit_rate;
      dram_bytes = traffic.(num_levels);
      l2_bytes = l2_requests;
      smem_bytes = traffic.(0);
      bank_conflict_factor = conflict;
      threads_per_block = Sched.Etir.threads_per_block etir;
      grid_blocks = Sched.Etir.grid_blocks etir;
      footprints }
  end

let evaluate ?knobs ~(hw : Hardware.Gpu_spec.t) etir =
  if Sched.Etir.num_levels etir <> Hardware.Gpu_spec.schedulable_cache_levels hw
  then
    invalid_arg "Model.evaluate: ETIR level count does not match the device";
  aggregate ?knobs ~hw etir (Delta.of_etir ~hw etir)

(* Aggregation over an already-derived component record (the incremental
   path), skipping the full rebuild.  The level-count check is the caller's
   responsibility: components only exist for states built against [hw]. *)
let evaluate_with ?knobs ~hw etir comps = aggregate ?knobs ~hw etir comps

(* Convenience: the scalar figure of merit optimisers maximise. *)
let score ?knobs ~hw etir = Metrics.score (evaluate ?knobs ~hw etir)
