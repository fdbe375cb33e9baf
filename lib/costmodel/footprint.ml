(* Memory footprints of ETIR tiles, by interval analysis of the compute
   definition's accesses.

   The footprint of a level-[l] tile is the number of bytes its data slice
   occupies in the level-[l] memory: the paper's [F(T)] (Eq. 1 denominator)
   and the quantity checked against cache capacity. *)

open Tensor_lang

let dtype_of_input (compute : Compute.t) tensor =
  match
    List.find_opt
      (fun input -> input.Compute.in_name = tensor)
      (Compute.inputs compute)
  with
  | Some input -> input.Compute.in_dtype
  | None ->
    invalid_arg (Fmt.str "Footprint: access to unknown tensor %s" tensor)

(* Per-input footprint of one representative level-[level] tile, in
   elements.  Epilogue operands (bias vectors, residual tensors) are staged
   like body operands; the accumulator read is excluded by
   [Compute.epilogue_accesses]. *)
let input_elems etir ~level =
  let compute = Sched.Etir.compute etir in
  let env = Sched.Etir.tile_env etir ~level in
  List.map
    (fun access ->
      (Access.tensor access, Access.footprint_elems ~env access))
    (Expr.accesses (Compute.body compute) @ Compute.epilogue_accesses compute)

let input_bytes etir ~level =
  let compute = Sched.Etir.compute etir in
  List.fold_left
    (fun acc (tensor, elems) ->
      acc + (elems * Dtype.size_bytes (dtype_of_input compute tensor)))
    0
    (input_elems etir ~level)

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

let all_levels etir =
  Array.init (Sched.Etir.num_levels etir + 1) (fun level ->
      bytes_at etir ~level)
