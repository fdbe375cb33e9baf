(* Memory footprints of ETIR tiles, evaluated from the compute's compiled
   footprint plan ([Tensor_lang.Footprint_plan], built once with the state
   and shared along its chain) over the state's effective-tile row at the
   level: affine dimensions are a sum over variable occurrences, the rest
   fall back to interval analysis.

   The footprint of a level-[l] tile is the number of bytes its data slice
   occupies in the level-[l] memory: the paper's [F(T)] (Eq. 1 denominator)
   and the quantity checked against cache capacity.  A representative tile
   sits at the origin; affine accesses make footprints shift-invariant. *)

open Tensor_lang

(* Per-input footprint of one representative level-[level] tile, in
   elements.  Epilogue operands (bias vectors, residual tensors) are staged
   like body operands; the accumulator read is excluded by
   [Compute.epilogue_accesses]. *)
let input_elems etir ~level =
  let row = Sched.Etir.eff_row etir ~level in
  Array.to_list
    (Array.map
       (fun (entry : Footprint_plan.entry) ->
         (entry.tensor, Footprint_plan.entry_elems row entry))
       (Sched.Etir.footprint_plan etir).entries)

let input_bytes etir ~level =
  Footprint_plan.input_bytes (Sched.Etir.footprint_plan etir)
    (Sched.Etir.eff_row etir ~level)

(* Output-accumulator footprint of a tile whose effective tiles are [row]
   (slot order: spatial dims first): the spatial tile's elements in the
   output dtype. *)
let output_bytes_row etir row =
  let elems = ref 1 in
  for dim = 0 to Sched.Etir.num_spatial etir - 1 do
    elems := !elems * row.(dim)
  done;
  !elems * Dtype.size_bytes (Compute.out_dtype (Sched.Etir.compute etir))

let output_bytes etir ~level =
  output_bytes_row etir (Sched.Etir.eff_row etir ~level)

(* Footprint charged against the capacity of each memory level.  Registers
   (level 0) hold the thread's input slices plus its output accumulator;
   shared memory stages input slices only (accumulators stay in registers);
   outer caches hold both. *)
let bytes_at etir ~level =
  if level = 1 then input_bytes etir ~level
  else input_bytes etir ~level + output_bytes etir ~level
