(* Reference interpreter for compute definitions: the semantic ground truth
   every schedule's execution is checked against. *)

open Tensor_lang

type env_slot = { var : string; mutable value : int }

let make_env axes = List.map (fun ax -> { var = Axis.name ax; value = 0 }) axes

let lookup env name =
  match List.find_opt (fun slot -> slot.var = name) env with
  | Some slot -> slot.value
  | None -> invalid_arg (Fmt.str "Reference: unbound loop variable %s" name)

let check_inputs compute inputs =
  List.iter
    (fun { Compute.in_name; in_shape; _ } ->
      match List.assoc_opt in_name inputs with
      | None -> invalid_arg (Fmt.str "Reference: missing input %s" in_name)
      | Some tensor ->
        if Tensor.shape tensor <> in_shape then
          invalid_arg
            (Fmt.str "Reference: input %s has shape [%a], declared [%a]"
               in_name
               Fmt.(list ~sep:(any ";") int)
               (Tensor.shape tensor)
               Fmt.(list ~sep:(any ";") int)
               in_shape))
    (Compute.inputs compute)

(* Combine one body value into the accumulator. *)
let combine_value compute acc v =
  match Compute.combine compute with
  | Compute.Sum -> acc +. v
  | Compute.Max_combine -> Float.max acc v

let run compute inputs =
  check_inputs compute inputs;
  let spatial = Compute.spatial_axes compute in
  let reduce = Compute.reduce_axes compute in
  let env = make_env (spatial @ reduce) in
  let env_fn = lookup env in
  let read tensor coords =
    match List.assoc_opt tensor inputs with
    | Some t -> Tensor.get t coords
    | None -> invalid_arg (Fmt.str "Reference: read of unknown tensor %s" tensor)
  in
  let body = Compute.body compute in
  let out = Tensor.create (Compute.output_shape compute) in
  let spatial_slots = List.filteri (fun i _ -> i < List.length spatial) env in
  let reduce_slots =
    List.filteri (fun i _ -> i >= List.length spatial) env
  in
  let rec reduce_loop axes slots acc =
    match (axes, slots) with
    | [], [] ->
      acc := combine_value compute !acc (Expr.eval ~read ~env:env_fn body)
    | ax :: axes', slot :: slots' ->
      for v = 0 to Axis.extent ax - 1 do
        slot.value <- v;
        reduce_loop axes' slots' acc
      done
    | _ -> assert false
  in
  (* The epilogue runs once per output element over the spatial
     environment, and a read of the output tensor inside it denotes the
     reduced+scaled accumulator — it never touches memory.  Other tensors
     resolve like body reads. *)
  let apply_epilogue acc =
    match Compute.epilogue compute with
    | None -> acc
    | Some e ->
      let out = Compute.out_name compute in
      let read tensor coords =
        if String.equal tensor out then acc else read tensor coords
      in
      Expr.eval ~read ~env:env_fn e
  in
  let rec spatial_loop axes slots coords =
    match (axes, slots) with
    | [], [] ->
      let acc = ref (Compute.init compute) in
      reduce_loop reduce reduce_slots acc;
      Tensor.set out (List.rev coords)
        (apply_epilogue (!acc *. Compute.scale compute))
    | ax :: axes', slot :: slots' ->
      for v = 0 to Axis.extent ax - 1 do
        slot.value <- v;
        spatial_loop axes' slots' (v :: coords)
      done
    | _ -> assert false
  in
  spatial_loop spatial spatial_slots [];
  out

(* Random inputs for a compute definition, deterministic in the seed. *)
let random_inputs ?(seed = 7) compute =
  let rng = Sched.Rng.create ~seed in
  List.map
    (fun { Compute.in_name; in_shape; _ } ->
      let t = Tensor.create in_shape in
      Tensor.fill_random rng t;
      (in_name, t))
    (Compute.inputs compute)
