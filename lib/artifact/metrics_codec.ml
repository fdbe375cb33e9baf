(* Text codec for {!Costmodel.Metrics.t}: one fixed-order field per line
   plus the per-level footprint vector.  Floats use the exact round-trip
   formatting of {!Codec.float}, so [decode (encode m)] is structurally
   identical to [m]. *)

open Costmodel

let ( let* ) = Result.bind

let encode b (m : Metrics.t) =
  let line k = Codec.field b k in
  line "exec_time_s" Codec.float m.exec_time_s;
  line "achieved_flops" Codec.float m.achieved_flops;
  line "compute_throughput" Codec.float m.compute_throughput;
  line "sm_occupancy" Codec.float m.sm_occupancy;
  line "mem_busy" Codec.float m.mem_busy;
  line "l2_hit_rate" Codec.float m.l2_hit_rate;
  line "dram_bytes" Codec.float m.dram_bytes;
  line "l2_bytes" Codec.float m.l2_bytes;
  line "smem_bytes" Codec.float m.smem_bytes;
  line "bank_conflict_factor" Codec.float m.bank_conflict_factor;
  line "threads_per_block" Codec.int m.threads_per_block;
  line "grid_blocks" Codec.int m.grid_blocks;
  line "footprints" (fun b -> Array.iter (Codec.int b)) m.footprints

let decode cur =
  let* exec_time_s = Codec.field_float cur "exec_time_s" in
  let* achieved_flops = Codec.field_float cur "achieved_flops" in
  let* compute_throughput = Codec.field_float cur "compute_throughput" in
  let* sm_occupancy = Codec.field_float cur "sm_occupancy" in
  let* mem_busy = Codec.field_float cur "mem_busy" in
  let* l2_hit_rate = Codec.field_float cur "l2_hit_rate" in
  let* dram_bytes = Codec.field_float cur "dram_bytes" in
  let* l2_bytes = Codec.field_float cur "l2_bytes" in
  let* smem_bytes = Codec.field_float cur "smem_bytes" in
  let* bank_conflict_factor = Codec.field_float cur "bank_conflict_factor" in
  let* threads_per_block = Codec.field_int cur "threads_per_block" in
  let* grid_blocks = Codec.field_int cur "grid_blocks" in
  let* footprints = Codec.field_ints cur "footprints" in
  Ok
    { Metrics.exec_time_s; achieved_flops; compute_throughput; sm_occupancy;
      mem_busy; l2_hit_rate; dram_bytes; l2_bytes; smem_bytes;
      bank_conflict_factor; threads_per_block; grid_blocks;
      footprints = Array.of_list footprints }
