(* Memory footprints of ETIR tiles, evaluated from the compute's compiled
   footprint plan ([Tensor_lang.Footprint_plan], built once with the state
   and shared along its chain): affine dimensions are a sum over variable
   occurrences, the rest fall back to interval analysis.

   The footprint of a level-[l] tile is the number of bytes its data slice
   occupies in the level-[l] memory: the paper's [F(T)] (Eq. 1 denominator)
   and the quantity checked against cache capacity.  A representative tile
   sits at the origin; affine accesses make footprints shift-invariant. *)

open Tensor_lang

(* Effective level-[level] tile of a plan slot: spatial dims first, then
   reduce dims. *)
let slot_tile etir ~level ~n_spatial slot =
  if slot < n_spatial then Sched.Etir.stile_eff etir ~level ~dim:slot
  else Sched.Etir.rtile_eff etir ~level ~dim:(slot - n_spatial)

let dim_extent etir ~level ~n_spatial (dim : Footprint_plan.dim) =
  match dim with
  | Footprint_plan.Affine { slots; coeffs } ->
    let ext = ref 1 in
    for k = 0 to Array.length slots - 1 do
      ext :=
        !ext + (coeffs.(k) * (slot_tile etir ~level ~n_spatial slots.(k) - 1))
    done;
    !ext
  | Footprint_plan.General g ->
    Interval.extent
      (Footprint_plan.general_interval
         ~tile:(slot_tile etir ~level ~n_spatial)
         g)

let entry_elems etir ~level ~n_spatial (entry : Footprint_plan.entry) =
  let elems = ref 1 in
  for d = 0 to Array.length entry.dims - 1 do
    elems := !elems * dim_extent etir ~level ~n_spatial entry.dims.(d)
  done;
  !elems

(* Per-input footprint of one representative level-[level] tile, in
   elements.  Epilogue operands (bias vectors, residual tensors) are staged
   like body operands; the accumulator read is excluded by
   [Compute.epilogue_accesses]. *)
let input_elems etir ~level =
  let plan = Sched.Etir.footprint_plan etir in
  let n_spatial = plan.n_spatial in
  Array.to_list
    (Array.map
       (fun (entry : Footprint_plan.entry) ->
         (entry.tensor, entry_elems etir ~level ~n_spatial entry))
       plan.entries)

(* The search hot path: no lists, no name lookups, no allocation on affine
   accesses. *)
let input_bytes etir ~level =
  let plan = Sched.Etir.footprint_plan etir in
  let n_spatial = plan.n_spatial in
  let bytes = ref 0 in
  for i = 0 to Array.length plan.entries - 1 do
    let entry = plan.entries.(i) in
    bytes :=
      !bytes + (entry_elems etir ~level ~n_spatial entry * entry.elem_bytes)
  done;
  !bytes

(* Output-accumulator footprint of a level-[level] tile: the spatial tile's
   elements in the output dtype. *)
let output_bytes etir ~level =
  let compute = Sched.Etir.compute etir in
  let n = Sched.Etir.num_spatial etir in
  let elems = ref 1 in
  for dim = 0 to n - 1 do
    elems := !elems * Sched.Etir.stile_eff etir ~level ~dim
  done;
  !elems * Dtype.size_bytes (Compute.out_dtype compute)

(* Footprint charged against the capacity of each memory level.  Registers
   (level 0) hold the thread's input slices plus its output accumulator;
   shared memory stages input slices only (accumulators stay in registers);
   outer caches hold both. *)
let bytes_at etir ~level =
  if level = 1 then input_bytes etir ~level
  else input_bytes etir ~level + output_bytes etir ~level
