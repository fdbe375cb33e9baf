(* A single-output compute definition: an iteration domain (spatial + reduce
   axes), input tensor declarations, and a scalar body combined across the
   reduce axes.  This is the "tensor program" the whole repository schedules:
   ETIR states wrap a [Compute.t] plus a tiling/vthread configuration.

   The output tensor is indexed by the spatial axes in declaration order, so
   [output_shape] is the spatial extents.  [scale] is an epilogue multiplier
   applied after reduction (e.g. 1/F^2 for average pooling). *)

type combine = Sum | Max_combine

type input = { in_name : string; in_shape : int list; in_dtype : Dtype.t }

type t = {
  name : string;
  axes : Axis.t list;
  inputs : input list;
  out_name : string;
  out_dtype : Dtype.t;
  init : float;
  body : Expr.t;
  combine : combine;
  scale : float;
  epilogue : Expr.t option;
      (* Post-reduction expression over the spatial axes; a read of
         [out_name] at the spatial axes (in order) denotes the reduced and
         scaled accumulator.  Extra tensors it reads are declared in
         [inputs] like any other operand. *)
}

let check_body_well_formed ~axes ~inputs ~body =
  let axis_names = List.map Axis.name axes in
  let find_input name =
    List.find_opt (fun input -> input.in_name = name) inputs
  in
  let full_env name =
    match List.find_opt (fun ax -> Axis.name ax = name) axes with
    | Some ax -> Interval.v 0 (Axis.extent ax - 1)
    | None -> invalid_arg (Fmt.str "Compute.v: unbound variable %s in body" name)
  in
  let check_access access =
    List.iter
      (fun var ->
        if not (List.mem var axis_names) then
          invalid_arg
            (Fmt.str "Compute.v: access %a uses unbound variable %s" Access.pp
               access var))
      (Access.vars access);
    match find_input (Access.tensor access) with
    | None ->
      invalid_arg
        (Fmt.str "Compute.v: access to undeclared tensor %s"
           (Access.tensor access))
    | Some input ->
      if Access.rank access <> List.length input.in_shape then
        invalid_arg
          (Fmt.str "Compute.v: access %a has rank %d, tensor has rank %d"
             Access.pp access (Access.rank access)
             (List.length input.in_shape));
      (* The whole iteration domain must stay inside the declared shape. *)
      List.iter2
        (fun iv dim ->
          if Interval.lo iv < 0 || Interval.hi iv >= dim then
            invalid_arg
              (Fmt.str "Compute.v: access %a exceeds bound %d (region %a)"
                 Access.pp access dim Interval.pp iv))
        (Access.region ~env:full_env access)
        input.in_shape
  in
  List.iter check_access (Expr.accesses body)

(* The epilogue runs once per output element, after the reduction: only
   spatial variables are in scope, and the single read of [out_name] must be
   the identity access (the accumulator), so fused kernels stay one-writer
   per output element. *)
let check_epilogue_well_formed ~axes ~inputs ~out_name ~epilogue =
  let spatial = List.filter Axis.is_spatial axes in
  let svars = List.map Axis.name spatial in
  let spatial_env name =
    match List.find_opt (fun ax -> Axis.name ax = name) spatial with
    | Some ax -> Interval.v 0 (Axis.extent ax - 1)
    | None ->
      invalid_arg (Fmt.str "Compute.v: unbound variable %s in epilogue" name)
  in
  let check_access access =
    List.iter
      (fun var ->
        if not (List.mem var svars) then
          invalid_arg
            (Fmt.str "Compute.v: epilogue access %a uses non-spatial variable %s"
               Access.pp access var))
      (Access.vars access);
    if Access.tensor access = out_name then begin
      let indices = Access.indices access in
      if
        not
          (List.length indices = List.length svars
          && List.for_all2 (fun idx v -> idx = Index.Var v) indices svars)
      then
        invalid_arg
          (Fmt.str
             "Compute.v: epilogue access %a must read %s at the spatial axes \
              in declaration order"
             Access.pp access out_name)
    end
    else
      match
        List.find_opt (fun input -> input.in_name = Access.tensor access) inputs
      with
      | None ->
        invalid_arg
          (Fmt.str "Compute.v: epilogue access to undeclared tensor %s"
             (Access.tensor access))
      | Some input ->
        if Access.rank access <> List.length input.in_shape then
          invalid_arg
            (Fmt.str "Compute.v: epilogue access %a has rank %d, tensor has rank %d"
               Access.pp access (Access.rank access)
               (List.length input.in_shape));
        List.iter2
          (fun iv dim ->
            if Interval.lo iv < 0 || Interval.hi iv >= dim then
              invalid_arg
                (Fmt.str "Compute.v: epilogue access %a exceeds bound %d (region %a)"
                   Access.pp access dim Interval.pp iv))
          (Access.region ~env:spatial_env access)
          input.in_shape
  in
  List.iter check_access (Expr.accesses epilogue)

let v ~name ~axes ~inputs ~out_name ?(out_dtype = Dtype.F32) ?(init = 0.0)
    ?(combine = Sum) ?(scale = 1.0) ?epilogue ~body () =
  if axes = [] then invalid_arg "Compute.v: no axes";
  if not (List.exists Axis.is_spatial axes) then
    invalid_arg "Compute.v: need at least one spatial axis";
  let names = List.map Axis.name axes in
  let distinct = List.sort_uniq compare names in
  if List.length distinct <> List.length names then
    invalid_arg "Compute.v: duplicate axis names";
  check_body_well_formed ~axes ~inputs ~body;
  Option.iter
    (fun epilogue ->
      check_epilogue_well_formed ~axes ~inputs ~out_name ~epilogue)
    epilogue;
  { name; axes; inputs; out_name; out_dtype; init; body; combine; scale;
    epilogue }

let name t = t.name
let axes t = t.axes
let inputs t = t.inputs
let out_name t = t.out_name
let out_dtype t = t.out_dtype
let init t = t.init
let body t = t.body
let combine t = t.combine
let scale t = t.scale

let epilogue t = t.epilogue
let spatial_axes t = List.filter Axis.is_spatial t.axes
let reduce_axes t = List.filter Axis.is_reduce t.axes
let output_shape t = List.map Axis.extent (spatial_axes t)
let output_points t = List.fold_left ( * ) 1 (output_shape t)

let epilogue_flops t =
  match t.epilogue with None -> 0 | Some e -> Expr.flops e

(* Tensor reads the epilogue adds on top of the body — the accumulator read
   of [out_name] is excluded (it never touches memory). *)
let epilogue_accesses t =
  match t.epilogue with
  | None -> []
  | Some e ->
    List.filter (fun a -> Access.tensor a <> t.out_name) (Expr.accesses e)

let domain_points t =
  List.fold_left (fun acc ax -> acc * Axis.extent ax) 1 t.axes

(* Total floating-point work: each domain point evaluates the body and, when
   there is a reduction, performs one combine.  Matches the 2MNK convention
   for GEMM. *)
let total_flops t =
  let body_flops = Expr.flops t.body in
  let combine_flops = if reduce_axes t = [] then 0 else 1 in
  domain_points t * (body_flops + combine_flops)
  + (output_points t * epilogue_flops t)

let input_bytes t =
  List.fold_left
    (fun acc input ->
      acc
      + List.fold_left ( * ) 1 input.in_shape * Dtype.size_bytes input.in_dtype)
    0 t.inputs

let output_bytes t =
  List.fold_left ( * ) 1 (output_shape t) * Dtype.size_bytes t.out_dtype

let pp_epilogue ppf = function
  | None -> ()
  | Some e -> Fmt.pf ppf "@,epilogue %a" Expr.pp e

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: axes [%a]@,out %s%a = %s_{%a} %a%s%a@]" t.name
    Fmt.(list ~sep:(any ", ") Axis.pp)
    t.axes t.out_name
    Fmt.(list ~sep:nop (brackets int))
    (output_shape t)
    (match t.combine with Sum -> "sum" | Max_combine -> "max")
    Fmt.(list ~sep:(any ",") string)
    (List.map Axis.name (reduce_axes t))
    Expr.pp t.body
    (if t.scale = 1.0 then "" else Fmt.str " * %g" t.scale)
    pp_epilogue t.epilogue

(* --- Canonical identity ------------------------------------------------ *)

(* Full structural 64-bit hash.  Unlike [Hashtbl.hash] (which samples a
   bounded number of nodes) this walks the entire definition, so distinct
   computes get distinct fingerprints up to mix collisions; unlike printing
   via [pp] it allocates nothing per node and does not depend on printer
   output.  Same mixer as [Sched.Etir.fingerprint]. *)
let mix64 h v =
  let open Int64 in
  let z = add (logxor h (mul v 0x9E3779B97F4A7C15L)) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash_int h i = mix64 h (Int64.of_int i)
let hash_float h f = mix64 h (Int64.bits_of_float f)

let hash_string h s =
  String.fold_left (fun h c -> hash_int h (Char.code c)) (hash_int h (String.length s)) s

let rec hash_index h (idx : Index.t) =
  match idx with
  | Var s -> hash_string (hash_int h 1) s
  | Const c -> hash_int (hash_int h 2) c
  | Add (a, b) -> hash_index (hash_index (hash_int h 3) a) b
  | Sub (a, b) -> hash_index (hash_index (hash_int h 4) a) b
  | Mul (a, b) -> hash_index (hash_index (hash_int h 5) a) b
  | Div (a, b) -> hash_index (hash_index (hash_int h 6) a) b
  | Mod (a, b) -> hash_index (hash_index (hash_int h 7) a) b
  | Min (a, b) -> hash_index (hash_index (hash_int h 8) a) b
  | Max (a, b) -> hash_index (hash_index (hash_int h 9) a) b

let hash_access h a =
  let h = hash_string h (Access.tensor a) in
  List.fold_left hash_index h (Access.indices a)

let rec hash_expr h (e : Expr.t) =
  match e with
  | Imm f -> hash_float (hash_int h 11) f
  | Read a -> hash_access (hash_int h 12) a
  | Neg a -> hash_expr (hash_int h 13) a
  | Add (a, b) -> hash_expr (hash_expr (hash_int h 14) a) b
  | Sub (a, b) -> hash_expr (hash_expr (hash_int h 15) a) b
  | Mul (a, b) -> hash_expr (hash_expr (hash_int h 16) a) b
  | Div (a, b) -> hash_expr (hash_expr (hash_int h 17) a) b
  | Max (a, b) -> hash_expr (hash_expr (hash_int h 18) a) b
  | Min (a, b) -> hash_expr (hash_expr (hash_int h 19) a) b

(* Extent-free identity of the fused tail alone: epilogue expressions read
   variables and constants, never axis extents, so this marker is stable
   across a shape family and distinguishes e.g. [+relu] from [+affine]
   tails in structured cache keys. *)
let epilogue_fingerprint t =
  Option.map
    (fun e ->
      let h = hash_expr 1L e in
      if h = 0L then 1L else h)
    t.epilogue

let fingerprint t =
  let h = hash_string 0L t.name in
  let h =
    List.fold_left
      (fun h ax ->
        hash_int
          (hash_string (hash_int h (if Axis.is_spatial ax then 1 else 2))
             (Axis.name ax))
          (Axis.extent ax))
      h t.axes
  in
  let h =
    List.fold_left
      (fun h input ->
        let h = hash_string h input.in_name in
        let h = List.fold_left hash_int h input.in_shape in
        hash_int h (Hashtbl.hash input.in_dtype))
      h t.inputs
  in
  let h = hash_string h t.out_name in
  let h = hash_int h (Hashtbl.hash t.out_dtype) in
  let h = hash_float h t.init in
  let h = hash_int h (match t.combine with Sum -> 20 | Max_combine -> 21) in
  let h = hash_float h t.scale in
  let h = hash_expr h t.body in
  let h =
    match t.epilogue with
    | None -> hash_int h 22
    | Some e -> hash_expr (hash_int h 23) e
  in
  if h = 0L then 1L else h

(* --- Epilogue fusion --------------------------------------------------- *)

(* Refusal codes are stable: GSR-F01 reduction consumer, GSR-F02 shape
   mismatch, GSR-F03 non-pointwise consumption, GSR-F04 non-identity
   reduction seed, GSR-F05 dtype mismatch, GSR-F06 consumer already carries
   an epilogue. *)
let fuse_epilogue anchor ~fed_input consumer =
  let err code fmt = Fmt.kstr (fun msg -> Error (code, msg)) fmt in
  if reduce_axes consumer <> [] then
    err "GSR-F01" "consumer %s reduces over [%a]; only pointwise epilogues fuse"
      consumer.name
      Fmt.(list ~sep:(any ",") string)
      (List.map Axis.name (reduce_axes consumer))
  else if consumer.epilogue <> None then
    err "GSR-F06" "consumer %s already carries an epilogue" consumer.name
  else if
    not (consumer.init = 0.0 && consumer.combine = Sum && consumer.scale = 1.0)
  then
    err "GSR-F04" "consumer %s has a non-identity reduction seed" consumer.name
  else if consumer.out_dtype <> anchor.out_dtype then
    err "GSR-F05" "consumer %s output dtype differs from anchor %s"
      consumer.name anchor.name
  else begin
    let out_shape = output_shape anchor in
    if output_shape consumer <> out_shape then
      err "GSR-F02" "consumer %s output shape [%a] differs from anchor %s [%a]"
        consumer.name
        Fmt.(list ~sep:(any ";") int)
        (output_shape consumer) anchor.name
        Fmt.(list ~sep:(any ";") int)
        out_shape
    else
      match
        List.find_opt (fun i -> i.in_name = fed_input) consumer.inputs
      with
      | None ->
        err "GSR-F03" "consumer %s has no input %s" consumer.name fed_input
      | Some fed when fed.in_shape <> out_shape ->
        err "GSR-F02" "consumer %s input %s shape [%a] differs from anchor %s [%a]"
          consumer.name fed_input
          Fmt.(list ~sep:(any ";") int)
          fed.in_shape anchor.name
          Fmt.(list ~sep:(any ";") int)
          out_shape
      | Some _ ->
        let avars = List.map Axis.name (spatial_axes anchor) in
        let cvars = List.map Axis.name (spatial_axes consumer) in
        let body =
          Expr.rename_vars ~bindings:(List.combine cvars avars) consumer.body
        in
        let identity access =
          let indices = Access.indices access in
          List.length indices = List.length avars
          && List.for_all2 (fun idx v -> idx = Index.Var v) indices avars
        in
        if
          List.exists
            (fun a -> Access.tensor a = fed_input && not (identity a))
            (Expr.accesses body)
        then
          err "GSR-F03"
            "consumer %s reads %s at non-identity coordinates" consumer.name
            fed_input
        else begin
          (* Merge the consumer's extra operands, renaming on collision with
             the anchor's tensors. *)
          let taken =
            ref (anchor.out_name :: List.map (fun i -> i.in_name) anchor.inputs)
          in
          let renames =
            List.filter_map
              (fun i ->
                if i.in_name = fed_input then None
                else begin
                  let nm =
                    if not (List.mem i.in_name !taken) then i.in_name
                    else begin
                      let rec fresh k =
                        let c = Fmt.str "%s_e%d" i.in_name k in
                        if List.mem c !taken then fresh (k + 1) else c
                      in
                      fresh 1
                    end
                  in
                  taken := nm :: !taken;
                  Some (i.in_name, nm, { i with in_name = nm })
                end)
              consumer.inputs
          in
          (* The accumulator the consumer sees: the anchor's prior epilogue
             when chaining, otherwise the identity read of the output. *)
          let acc_expr =
            match anchor.epilogue with
            | None -> Expr.read anchor.out_name (List.map Index.var avars)
            | Some e -> e
          in
          let epilogue =
            Expr.map_reads
              (fun access ->
                let tensor = Access.tensor access in
                if tensor = fed_input then acc_expr
                else
                  match
                    List.find_opt (fun (o, _, _) -> o = tensor) renames
                  with
                  | Some (_, n, _) ->
                    Expr.Read (Access.v n (Access.indices access))
                  | None -> Expr.Read access)
              body
          in
          let inputs =
            anchor.inputs @ List.map (fun (_, _, i) -> i) renames
          in
          let fused =
            v
              ~name:(anchor.name ^ "+" ^ consumer.name)
              ~axes:anchor.axes ~inputs ~out_name:anchor.out_name
              ~out_dtype:anchor.out_dtype ~init:anchor.init
              ~combine:anchor.combine ~scale:anchor.scale ~epilogue
              ~body:anchor.body ()
          in
          Ok (fused, List.map (fun (o, n, _) -> (o, n)) renames)
        end
  end
