(* Memory traffic per hierarchy level — the paper's [Q(T)] (Eq. 1 numerator).

   Traffic into level [l] is the bytes its tiles load from the next slower
   level over the whole kernel: (number of level-l tile instances, including
   reduction steps) x (per-tile input footprint), plus the output written
   through.  For GEMM with block tile (tm, tn) and reduce tile tk this yields
   the classic (M/tm)(N/tn)(K/tk)(tm*tk + tk*tn) + M*N. *)

open Tensor_lang

(* Level tile instances, reduction steps included, of a tile whose
   effective tiles are [row] (slot order of [Etir.eff_row]). *)
let instances_row etir row =
  let sext = Sched.Etir.spatial_extents etir in
  let rext = Sched.Etir.reduce_extents etir in
  let n_spatial = Array.length sext in
  let acc = ref 1 in
  for slot = 0 to n_spatial + Array.length rext - 1 do
    let ext =
      if slot < n_spatial then sext.(slot) else rext.(slot - n_spatial)
    in
    acc := !acc * ((ext + row.(slot) - 1) / row.(slot))
  done;
  !acc

(* Bytes loaded into a level from the level above it, given the level's
   effective-tile row and per-tile input footprint (incremental evaluation
   and the edge scorer compute the footprint once and share it with the
   footprint term). *)
let bytes_into_row etir row ~input_bytes =
  (float_of_int (instances_row etir row) *. float_of_int input_bytes)
  +. float_of_int (Sched.Etir.output_bytes etir)

let bytes_into etir ~level =
  bytes_into_row etir
    (Sched.Etir.eff_row etir ~level)
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
