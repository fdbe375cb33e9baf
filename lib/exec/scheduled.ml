(* Scheduled executor: runs the tiled / virtual-threaded loop nest an ETIR
   describes, on the CPU.

   The loop structure mirrors the generated kernel: thread blocks over the
   level-1 tiles, logical execution units (physical threads x vthread
   stripes) over the block, stripe elements within a unit, and the reduction
   chunked by the level-1 then level-0 reduce tiles.  Numerically this is a
   reordering of the reference interpreter's loops, so results agree up to
   floating-point associativity.

   [coverage] counts how many times each output element was written — a
   correct schedule partitions the spatial domain exactly, so every count is
   1.  This is the property tests' main invariant. *)

open Tensor_lang
open Sched

type result = {
  output : Tensor.t;
  coverage : Tensor.t;  (* per-output-element visit count *)
}

let ceil_div a b = (a + b - 1) / b

let c_runs = Trace.Counter.make "exec.interp.runs"
let c_points = Trace.Counter.make "exec.interp.points"

let run etir inputs =
  Trace.with_span ~name:"exec.interp.run" @@ fun () ->
  Trace.Counter.incr c_runs;
  let compute = Etir.compute etir in
  let spatial = Array.of_list (Compute.spatial_axes compute) in
  let reduce = Array.of_list (Compute.reduce_axes compute) in
  let n = Array.length spatial and m = Array.length reduce in
  let sext = Array.map Axis.extent spatial in
  let rext = Array.map Axis.extent reduce in
  let bsize = Array.init n (fun i -> Etir.stile_eff etir ~level:1 ~dim:i) in
  let tsize = Array.init n (fun i -> Etir.stile etir ~level:0 ~dim:i) in
  let vths = Array.init n (fun i -> Etir.vthread etir ~dim:i) in
  (* Stripe width of one logical unit; ceil so the units always cover the
     thread tile even when the vthread count does not divide it. *)
  let stripe = Array.init n (fun i -> ceil_div tsize.(i) vths.(i)) in
  let units =
    Array.init n (fun i -> ceil_div bsize.(i) tsize.(i) * vths.(i))
  in
  let r1 = Array.init m (fun j -> Etir.rtile_eff etir ~level:1 ~dim:j) in
  let r0 = Array.init m (fun j -> Etir.rtile_eff etir ~level:0 ~dim:j) in
  let read tensor coords =
    match List.assoc_opt tensor inputs with
    | Some t -> Tensor.get t coords
    | None -> invalid_arg (Fmt.str "Scheduled: read of unknown tensor %s" tensor)
  in
  let body = Compute.body compute in
  let svals = Array.make n 0 and rvals = Array.make m 0 in
  let env name =
    let rec find i arr vals =
      if i = Array.length arr then None
      else if Axis.name arr.(i) = name then Some vals.(i)
      else find (i + 1) arr vals
    in
    match find 0 spatial svals with
    | Some v -> v
    | None -> (
      match find 0 reduce rvals with
      | Some v -> v
      | None -> invalid_arg (Fmt.str "Scheduled: unbound variable %s" name))
  in
  let out = Tensor.create (Array.to_list sext) in
  let coverage = Tensor.create (Array.to_list sext) in
  (* Chunked reduction over dim [j..]: level-1 chunks, then level-0
     sub-chunks, then elements. *)
  let rec reduce_dim j acc =
    if j = m then
      acc := (match Compute.combine compute with
          | Compute.Sum -> !acc +. Expr.eval ~read ~env body
          | Compute.Max_combine -> Float.max !acc (Expr.eval ~read ~env body))
    else begin
      let c1 = ref 0 in
      while !c1 < rext.(j) do
        let chunk1_end = min (!c1 + r1.(j)) rext.(j) in
        let c0 = ref !c1 in
        while !c0 < chunk1_end do
          let chunk0_end = min (!c0 + r0.(j)) chunk1_end in
          for r = !c0 to chunk0_end - 1 do
            rvals.(j) <- r;
            reduce_dim (j + 1) acc
          done;
          c0 := chunk0_end
        done;
        c1 := chunk1_end
      done
    end
  in
  (* As in the reference interpreter: the epilogue sees the reduced+scaled
     accumulator wherever it reads the output tensor ([Epilogue.apply]). *)
  let apply_epilogue acc = Epilogue.apply compute ~read ~env acc in
  (* One output element. *)
  let points = ref 0 in
  let visit () =
    points := !points + max 1 (Array.fold_left ( * ) 1 rext);
    let acc = ref (Compute.init compute) in
    reduce_dim 0 acc;
    let coords = Array.to_list svals in
    Tensor.set out coords (apply_epilogue (!acc *. Compute.scale compute));
    Tensor.set coverage coords (Tensor.get coverage coords +. 1.0)
  in
  (* Elements of one logical unit's stripe. *)
  let rec stripe_dim i ~origin ~block_start =
    if i = n then visit ()
    else begin
      let block_end = min (block_start.(i) + bsize.(i)) sext.(i) in
      for e = 0 to stripe.(i) - 1 do
        let coord = origin.(i) + e in
        if coord < block_end then begin
          svals.(i) <- coord;
          stripe_dim (i + 1) ~origin ~block_start
        end
      done
    end
  in
  (* Logical units within a block: unit u covers the contiguous stripe
     starting at block_start + u * stripe. *)
  let origin = Array.make n 0 in
  let rec unit_dim i ~block_start =
    if i = n then stripe_dim 0 ~origin ~block_start
    else
      for u = 0 to units.(i) - 1 do
        origin.(i) <- block_start.(i) + (u * stripe.(i));
        unit_dim (i + 1) ~block_start
      done
  in
  (* Thread blocks over the grid. *)
  let block_start = Array.make n 0 in
  let rec block_dim i =
    if i = n then unit_dim 0 ~block_start
    else begin
      let b = ref 0 in
      while !b < sext.(i) do
        block_start.(i) <- !b;
        block_dim (i + 1);
        b := !b + bsize.(i)
      done
    end
  in
  block_dim 0;
  Trace.Counter.add c_points !points;
  { output = out; coverage }

(* Every output element written exactly once.  [coverage_violation] returns
   the first offender (row-major order) with its observed count so a failing
   partition property names the coordinate instead of a bare [false]. *)
let coverage_violation result =
  let counts = Tensor.unsafe_data result.coverage in
  let len = Array.length counts in
  let rec scan off =
    if off = len then None
    else
      let count = counts.(off) in
      if count <> 1.0 then
        Some (Tensor.coords_of_offset result.coverage off, count)
      else scan (off + 1)
  in
  scan 0

let coverage_exact result = coverage_violation result = None

let pp_coverage_violation ppf (coords, count) =
  Fmt.pf ppf "output[%a] written %g times (expected 1)"
    Fmt.(list ~sep:(any ",") int)
    coords count
