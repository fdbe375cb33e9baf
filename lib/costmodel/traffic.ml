(* Memory traffic per hierarchy level — the paper's [Q(T)] (Eq. 1 numerator).

   Traffic into level [l] is the bytes its tiles load from the next slower
   level over the whole kernel: (number of level-l tile instances, including
   reduction steps) x (per-tile input footprint), plus the output written
   through.  For GEMM with block tile (tm, tn) and reduce tile tk this yields
   the classic (M/tm)(N/tn)(K/tk)(tm*tk + tk*tn) + M*N. *)

open Tensor_lang

(* Bytes loaded into ETIR level [level] from the level above it.  The
   [_given] form takes the per-tile input footprint the caller already
   computed (incremental evaluation shares it with the footprint term). *)
let bytes_into_given etir ~level ~input_bytes =
  let instances =
    Sched.Etir.spatial_tiles_at etir ~level
    * Sched.Etir.reduce_steps_at etir ~level
  in
  (float_of_int instances *. float_of_int input_bytes)
  +. float_of_int (Sched.Etir.output_bytes etir)

let bytes_into etir ~level =
  bytes_into_given etir ~level
    ~input_bytes:(Footprint.input_bytes etir ~level)

(* Compulsory traffic: every input read at least once, output written once. *)
let compulsory_bytes etir =
  let compute = Sched.Etir.compute etir in
  float_of_int (Compute.input_bytes compute + Compute.output_bytes compute)

(* DRAM traffic is the traffic of the outermost cache level's tiles, but
   never below the compulsory minimum. *)
let dram_bytes etir =
  let level = Sched.Etir.num_levels etir in
  Float.max (bytes_into etir ~level) (compulsory_bytes etir)

let all_levels etir =
  Array.init (Sched.Etir.num_levels etir + 1) (fun level ->
      bytes_into etir ~level)
