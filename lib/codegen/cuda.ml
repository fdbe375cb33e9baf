(* Lowering of a scheduled ETIR to the typed kernel tree.

   The tree mirrors the structure the scheduled executor runs: block-tile
   coordinates from blockIdx, logical-unit (physical thread x vthread
   stripe) coordinates from threadIdx plus stripe loops, a chunked
   reduction with shared-memory staging at the level-1 boundary, and an
   unrolled level-0 inner loop.  [Kernel.print] renders it. *)

open Tensor_lang
open Sched
open Kernel

let ceil_div a b = (a + b - 1) / b

(* Fused computes carry composite names ("gemm+relu"); the kernel symbol
   must stay a C identifier. *)
let kernel_symbol compute =
  let name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      (Compute.name compute)
  in
  name ^ "_kernel"

(* Dim n-1 maps to x, n-2 to y; the rest share z, each as [z / stride %
   extent] over the per-dimension [counts] (a lone third dim is plain z). *)
let coord n counts i =
  if i = n - 1 then X
  else if i = n - 2 then Y
  else if i = 0 && n <= 3 then Z
  else begin
    let stride = ref 1 in
    for k = i + 1 to n - 3 do
      stride := !stride * counts k
    done;
    Fold { stride = !stride; extent = counts i }
  end

let loop ?(thread_dependent = false) role var bound =
  { role; var; bound; thread_dependent }

(* [nest axes level inner] wraps [inner] in [level i axes.(i)] for each
   axis, the first outermost. *)
let nest axes level inner =
  let rec go i =
    if i = Array.length axes then inner else level i axes.(i) (go (i + 1))
  in
  go 0

let lower etir =
  let compute = Etir.compute etir in
  let spatial = Array.of_list (List.map Axis.name (Compute.spatial_axes compute)) in
  let reduce_axes = Array.of_list (Compute.reduce_axes compute) in
  let reduce = Array.map Axis.name reduce_axes in
  let n = Array.length spatial in
  let sext = Etir.spatial_extents etir in
  let blocks k = ceil_div sext.(k) (Etir.stile_eff etir ~level:1 ~dim:k) in
  let threads k = Etir.physical_threads_dim etir k in
  let staged = Costmodel.Footprint.input_elems etir ~level:1 in
  let symbol = kernel_symbol compute in
  (* Innermost unrolled level-0 reduce chunk around the accumulate. *)
  let unrolled =
    nest reduce
      (fun j axis inner ->
        [ Loop
            ( loop Unrolled (axis ^ "_u") (Etir.rtile_eff etir ~level:0 ~dim:j),
              Reduce_index axis :: inner ) ])
      [ Accumulate { combine = Compute.combine compute; value = Compute.body compute } ]
  in
  (* Virtual-thread stripe loops (paper Fig. 3): each physical thread
     executes [v] interleaved stripes of its tile. *)
  let stripes =
    nest spatial
      (fun i axis inner ->
        let v = Etir.vthread etir ~dim:i in
        let width = ceil_div (Etir.stile etir ~level:0 ~dim:i) v in
        [ Loop
            ( loop Stripe (axis ^ "_vt") v,
              [ Loop
                  ( loop Element (axis ^ "_e") width,
                    Spatial_index
                      { axis; threads = threads i; thread = coord n threads i; width }
                    :: inner ) ] ) ])
      unrolled
  in
  (* Reduction: chunked at the level-1 reduce tiles, each chunk staged
     cooperatively between barriers. *)
  let body =
    if reduce = [||] then stripes
    else
      let staging =
        Comment "cooperative staging of the level-1 input slices"
        :: List.map
             (fun (tensor, elems) ->
               Loop (loop ~thread_dependent:true Staging "s" elems, [ Stage tensor ]))
             staged
      in
      nest reduce
        (fun j axis inner ->
          [ Loop
              ( loop
                  (Chunk (Etir.rtile_eff etir ~level:1 ~dim:j))
                  (axis ^ "_c1")
                  (Axis.extent reduce_axes.(j)),
                inner ) ])
        (staging @ (Barrier :: stripes) @ [ Barrier ])
  in
  { source = lazy (Etir.signature etir);
    symbol;
    inputs =
      List.map (fun i -> (i.Compute.in_name, i.Compute.in_dtype)) (Compute.inputs compute);
    output = (Compute.out_name compute, Compute.out_dtype compute);
    shared = staged;
    origins =
      List.init n (fun i ->
          (spatial.(i), coord n blocks i, Etir.stile_eff etir ~level:1 ~dim:i));
    acc = List.fold_left ( * ) 1 (List.init n (fun i -> Etir.stile etir ~level:0 ~dim:i));
    init = Compute.init compute;
    body;
    store =
      { out = Compute.out_name compute;
        axes = Array.to_list spatial;
        scale = Compute.scale compute;
        epilogue = Compute.epilogue compute };
    host = { launch = Launch.of_etir etir; callee = symbol } }

let emit etir = Kernel.print (lower etir)
let emit_host etir = Kernel.print_host (lower etir)
