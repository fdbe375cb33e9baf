(* Bounds pass: affine-interval legality of every tensor access under the
   ETIR tiling.

   The pass places the *last* tile along every axis — the placement with the
   highest coordinates — and evaluates each access's index region with
   {!Tensor_lang.Interval} arithmetic, once at block granularity (the level-1
   tile a blockIdx selects) and once at thread granularity (the index range
   the block's thread/vthread decomposition actually enumerates).  The
   emitted kernel carries no boundary guards, so:

   - a tile wider than its axis, or a vthread count wider than its thread
     tile, makes the touched region escape the declared tensor shape
     unconditionally: an out-of-bounds [Error];
   - a tile that merely fails to divide its covering domain (axis extent,
     block tile, reduce chunk) overruns only on the boundary tile: a
     guard-obligation [Warning] — legal once codegen grows predication.

   Interval evaluation is inclusion-monotone, so a schedule whose tiles all
   divide touches exactly the validated full-domain region: the pass is
   silent on dividing-tile schedules (soundness property test). *)

open Tensor_lang
open Sched

let ceil_div a b = (a + b - 1) / b

type axis_range = {
  ar_name : string;
  lo : int;
  hi : int;  (* unguarded: what the loops index without predication *)
  broken : bool;  (* tile structurally illegal (region escape is certain) *)
}

(* Spatial ranges at block granularity: the last level-1 tile. *)
let block_spatial etir =
  Array.to_list
    (Array.mapi
       (fun i ax ->
         let extent = (Etir.spatial_extents etir).(i) in
         let tile = Etir.stile_eff etir ~level:1 ~dim:i in
         let o = (ceil_div extent tile - 1) * tile in
         { ar_name = Axis.name ax; lo = o; hi = o + tile - 1;
           broken = tile > extent })
       (Etir.spatial_axes etir))

(* Spatial ranges at thread granularity: the index range the last block's
   thread/vthread decomposition enumerates.  Physical thread t and vthread
   stripe s of dim i index [o + (s*P + t)*w .. +w-1] with stripe width
   w = ceil(T0/v); collectively the block enumerates [o, o + P*v*w - 1]. *)
let thread_spatial etir =
  Array.to_list
    (Array.mapi
       (fun i ax ->
         let extent = (Etir.spatial_extents etir).(i) in
         let t1 = Etir.stile_eff etir ~level:1 ~dim:i in
         let t0 = Etir.stile etir ~level:0 ~dim:i in
         let v = Etir.vthread etir ~dim:i in
         let p = Etir.physical_threads_dim etir i in
         let w = ceil_div t0 (max v 1) in
         let cover = p * v * w in
         let o = (ceil_div extent t1 - 1) * t1 in
         { ar_name = Axis.name ax; lo = o; hi = o + cover - 1;
           broken = t1 > extent || t0 > extent || v > t0 })
       (Etir.spatial_axes etir))

(* Reduce ranges: the last level-1 chunk of the reduction loop; at thread
   granularity only the unrolled level-0 slice of that chunk is live. *)
let reduce_ranges etir ~thread =
  Array.to_list
    (Array.mapi
       (fun j ax ->
         let extent = (Etir.reduce_extents etir).(j) in
         let r1 = Etir.rtile_eff etir ~level:1 ~dim:j in
         let width =
           if thread then Etir.rtile_eff etir ~level:0 ~dim:j else r1
         in
         let o = (ceil_div extent r1 - 1) * r1 in
         { ar_name = Axis.name ax; lo = o; hi = o + width - 1;
           broken = r1 > extent || width > extent })
       (Etir.reduce_axes etir))

let env_of ranges name =
  match List.find_opt (fun r -> r.ar_name = name) ranges with
  | Some r -> Interval.v r.lo (max r.lo r.hi)
  | None -> invalid_arg (Fmt.str "Bounds: unknown axis %s" name)

(* One access (or the output write) against one granularity's ranges:
   an access whose variables include a broken axis certainly escapes its
   tensor — report the unguarded region dimension by dimension. *)
let check_access ~granularity ~ranges ~tensor ~shape ~indices ~what =
  let vars =
    List.sort_uniq compare (List.concat_map Index.vars indices)
  in
  let touches_broken =
    List.exists
      (fun v ->
        match List.find_opt (fun r -> r.ar_name = v) ranges with
        | Some r -> r.broken
        | None -> false)
      vars
  in
  if not touches_broken then []
  else begin
    let env = env_of ranges in
    let region = List.map (Interval.of_index ~env) indices in
    List.concat
      (List.mapi
         (fun d (iv, extent) ->
           if Interval.lo iv < 0 || Interval.hi iv > extent - 1 then
             [ Diagnostic.v ~code:"GSR-B08" Diagnostic.Error Diagnostic.Bounds
                 ~loc:(Fmt.str "%s, %s %s dim %d" granularity what tensor d)
                 "indices %a escape the declared extent %d" Interval.pp iv
                 extent ]
           else [])
         (List.combine region shape))
  end

let check etir =
  let compute = Etir.compute etir in
  let spatial = Etir.spatial_axes etir in
  let sext = Etir.spatial_extents etir and rext = Etir.reduce_extents etir in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let error ~code ~loc fmt = Fmt.kstr (fun m -> add (Diagnostic.v ~code Diagnostic.Error Diagnostic.Bounds ~loc "%s" m)) fmt in
  let warn ~code ~loc fmt = Fmt.kstr (fun m -> add (Diagnostic.v ~code Diagnostic.Warning Diagnostic.Bounds ~loc "%s" m)) fmt in
  (* Structural tile legality: a tile wider than its axis or a vthread count
     wider than its thread tile cannot be repaired by a guard. *)
  Array.iteri
    (fun i ax ->
      let name = Axis.name ax in
      List.iter
        (fun level ->
          let tile = Etir.stile_eff etir ~level ~dim:i in
          if tile > sext.(i) then
            error ~code:"GSR-B01" ~loc:(Fmt.str "level %d, axis %s" level name)
              "spatial tile %d exceeds the axis extent %d (out-of-bounds tile)"
              tile sext.(i))
        [ 1; 0 ];
      let v = Etir.vthread etir ~dim:i in
      let t0 = Etir.stile etir ~level:0 ~dim:i in
      if v > t0 then
        error ~code:"GSR-B02" ~loc:(Fmt.str "axis %s" name)
          "vthread count %d exceeds the thread tile %d: stripes index outside \
           the tile" v t0)
    spatial;
  Array.iteri
    (fun j ax ->
      let name = Axis.name ax in
      List.iter
        (fun level ->
          let tile = Etir.rtile_eff etir ~level ~dim:j in
          if tile > rext.(j) then
            error ~code:"GSR-B03" ~loc:(Fmt.str "level %d, axis %s" level name)
              "reduce tile %d exceeds the axis extent %d (out-of-bounds tile)"
              tile rext.(j))
        [ 1; 0 ])
    (Etir.reduce_axes etir);
  (* Guard obligations: non-dividing tiles overrun on the boundary tile. *)
  Array.iteri
    (fun i ax ->
      let name = Axis.name ax in
      let t1 = Etir.stile_eff etir ~level:1 ~dim:i in
      if t1 <= sext.(i) && sext.(i) mod t1 <> 0 then
        warn ~code:"GSR-B04" ~loc:(Fmt.str "level 1, axis %s" name)
          "block tile %d does not divide the extent %d: the boundary block \
           overruns by %d; guard required" t1 sext.(i)
          (ceil_div sext.(i) t1 * t1 - sext.(i));
      let t0 = Etir.stile etir ~level:0 ~dim:i in
      let v = Etir.vthread etir ~dim:i in
      if v <= t0 then begin
        let cover =
          Etir.physical_threads_dim etir i * v * ceil_div t0 (max v 1)
        in
        if t1 <= sext.(i) && cover <> t1 then
          warn ~code:"GSR-B05" ~loc:(Fmt.str "level 0, axis %s" name)
            "thread/vthread decomposition enumerates %d indices of a %d-wide \
             block tile; guard required" cover t1
      end)
    spatial;
  Array.iteri
    (fun j ax ->
      let name = Axis.name ax in
      let r1 = Etir.rtile_eff etir ~level:1 ~dim:j in
      let r0 = Etir.rtile_eff etir ~level:0 ~dim:j in
      if r1 <= rext.(j) && rext.(j) mod r1 <> 0 then
        warn ~code:"GSR-B06" ~loc:(Fmt.str "level 1, axis %s" name)
          "reduce chunk %d does not divide the extent %d; guard required" r1
          rext.(j);
      if r1 <= rext.(j) && r1 mod r0 <> 0 then
        warn ~code:"GSR-B07" ~loc:(Fmt.str "level 0, axis %s" name)
          "register reduce tile %d does not divide the chunk %d; remainder \
           loop required" r0 r1)
    (Etir.reduce_axes etir);
  (* Access regions, block then thread granularity: inputs and the output
     write against their declared shapes. *)
  let inputs = Compute.inputs compute in
  let shape_of tensor =
    match List.find_opt (fun i -> i.Compute.in_name = tensor) inputs with
    | Some i -> Some i.Compute.in_shape
    | None -> None
  in
  List.iter
    (fun (granularity, ranges) ->
      List.iter
        (fun access ->
          match shape_of (Access.tensor access) with
          | None -> ()  (* Compute.v already rejects unknown tensors *)
          | Some shape ->
            List.iter add
              (check_access ~granularity ~ranges ~tensor:(Access.tensor access)
                 ~shape ~indices:(Access.indices access) ~what:"read of"))
        (Expr.accesses (Compute.body compute));
      let out_indices =
        List.map (fun ax -> Index.var (Axis.name ax))
          (Array.to_list spatial)
      in
      List.iter add
        (check_access ~granularity ~ranges ~tensor:(Compute.out_name compute)
           ~shape:(Compute.output_shape compute) ~indices:out_indices
           ~what:"write of"))
    [ ("block tile", block_spatial etir @ reduce_ranges etir ~thread:false);
      ("thread tile", thread_spatial etir @ reduce_ranges etir ~thread:true) ];
  List.rev !diags
