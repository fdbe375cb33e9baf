(* Reference executor for compute definitions: the semantic ground truth
   every schedule's execution is checked against.

   [run] stages the compute once and then runs it.  Each loop variable
   gets a fixed slot in an [int array] (spatial axes first, then reduce
   axes, in declaration order); each index expression becomes an
   [int array -> int] closure over that array, each tensor read a
   bounds-checked load, and the body and the epilogue float closures.
   The loops are the definition's own: spatial axes then reduce axes, in
   ascending lexicographic order, combining each body value into the
   accumulator as it comes.  Nothing here knows a schedule. *)

open Tensor_lang

let c_points = Trace.Counter.make "exec.reference.points"

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

(* [Index.eval] with every variable resolved to its slot. *)
let rec stage_index slot (idx : Index.t) : int array -> int =
  match idx with
  | Var name ->
    let s = slot name in
    fun env -> env.(s)
  | Const n -> fun _ -> n
  | Add (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env -> a env + b env
  | Sub (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env -> a env - b env
  | Mul (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env -> a env * b env
  | Div (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env ->
      let d = b env in
      if d <= 0 then invalid_arg "Index.eval: division by non-positive value";
      Index.floordiv (a env) d
  | Mod (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env ->
      let d = b env in
      if d <= 0 then invalid_arg "Index.eval: modulo by non-positive value";
      Index.floormod (a env) d
  | Min (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env -> Int.min (a env) (b env)
  | Max (a, b) ->
    let a = stage_index slot a and b = stage_index slot b in
    fun env -> Int.max (a env) (b env)

(* A load of [tensor] at the access's coordinates, each checked against
   the tensor's shape before it is scaled by its stride.  A coordinate
   that is a bare loop variable reads its slot ([vslot], else -1) without
   a closure call: about twice the rate on a GEMM. *)
let stage_load slot name tensor access =
  let shape = Array.of_list (Tensor.shape tensor) in
  let strides = Tensor.strides tensor in
  let data = Tensor.unsafe_data tensor in
  let indices = Array.of_list (Access.indices access) in
  let dims = Array.map (stage_index slot) indices in
  let vslot = Array.map (function Index.Var v -> slot v | _ -> -1) indices in
  fun env ->
    let off = ref 0 in
    for d = 0 to Array.length dims - 1 do
      let s = vslot.(d) in
      let c = if s >= 0 then env.(s) else dims.(d) env in
      if c < 0 || c >= shape.(d) then
        invalid_arg
          (Fmt.str "Reference: %s index %d out of bounds [0,%d) at dim %d"
             name c shape.(d) d);
      off := !off + (c * strides.(d))
    done;
    Array.unsafe_get data !off

(* [Expr.eval] with every read resolved by [load]. *)
let rec stage_expr load (e : Expr.t) : int array -> float =
  match e with
  | Imm f -> fun _ -> f
  | Read access -> load access
  | Neg a ->
    let a = stage_expr load a in
    fun env -> -.a env
  | Add (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> a env +. b env
  | Sub (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> a env -. b env
  | Mul (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> a env *. b env
  | Div (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> a env /. b env
  | Max (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> Float.max (a env) (b env)
  | Min (a, b) ->
    let a = stage_expr load a and b = stage_expr load b in
    fun env -> Float.min (a env) (b env)

let run compute inputs =
  Trace.with_span ~name:"exec.reference" @@ fun () ->
  check_inputs compute inputs;
  let axes = Compute.spatial_axes compute @ Compute.reduce_axes compute in
  let ext = Array.of_list (List.map Axis.extent axes) in
  let nspatial = List.length (Compute.spatial_axes compute) in
  let nslots = Array.length ext in
  let slot name =
    match List.find_index (fun ax -> Axis.name ax = name) axes with
    | Some s -> s
    | None -> invalid_arg (Fmt.str "Reference: unbound loop variable %s" name)
  in
  let load access =
    let name = Access.tensor access in
    match List.assoc_opt name inputs with
    | Some t -> stage_load slot name t access
    | None -> invalid_arg (Fmt.str "Reference: read of unknown tensor %s" name)
  in
  let body = stage_expr load (Compute.body compute) in
  (* [acc.(0)] is the running reduction; [acc.(1)] the reduced and scaled
     value, which the epilogue's read of the output tensor denotes — it
     never touches memory.  Other epilogue reads resolve like body reads. *)
  let acc = [| 0.0; 0.0 |] in
  let epilogue =
    Option.map
      (stage_expr (fun access ->
           if String.equal (Access.tensor access) (Compute.out_name compute)
           then fun _ -> acc.(1)
           else load access))
      (Compute.epilogue compute)
  in
  let env = Array.make nslots 0 in
  let combine =
    match Compute.combine compute with
    | Compute.Sum -> fun () -> acc.(0) <- acc.(0) +. body env
    | Compute.Max_combine -> fun () -> acc.(0) <- Float.max acc.(0) (body env)
  in
  (* Reduce axes [d..]; with none, the element reduces one point. *)
  let rec reduce d =
    if d = nslots then combine ()
    else
      for v = 0 to ext.(d) - 1 do
        env.(d) <- v;
        reduce (d + 1)
      done
  in
  let out = Tensor.create (Compute.output_shape compute) in
  let data = Tensor.unsafe_data out in
  let init = Compute.init compute and scale = Compute.scale compute in
  (* Output elements come in row-major order, so the offset is a count. *)
  let pos = ref 0 in
  let rec spatial d =
    if d = nspatial then begin
      acc.(0) <- init;
      reduce nspatial;
      acc.(1) <- acc.(0) *. scale;
      data.(!pos) <- (match epilogue with None -> acc.(1) | Some f -> f env);
      incr pos
    end
    else
      for v = 0 to ext.(d) - 1 do
        env.(d) <- v;
        spatial (d + 1)
      done
  in
  spatial 0;
  Trace.Counter.add c_points (Compute.domain_points compute);
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
