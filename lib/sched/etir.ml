(* ETIR: the enhanced tensor-program IR of the paper (§IV-A).

   A state bundles a compute definition with a memory-tiling configuration
   [D = [T_L; ...; T_1; T_0]] per loop dimension (paper §IV-C) plus a virtual
   thread configuration.  Level indices map onto the hardware hierarchy:

     level 0  per-thread tile (register stride [T_0])
     level 1  thread-block tile (shared memory)
     level l>=2 wave tile (L2 and outer caches)

   [cur_level] is the memory level currently being scheduled; construction
   starts at the outermost cache level [L] and the [cache] action moves it
   toward the registers, mirroring the paper's convergence "to the next level
   of cache".  Tile sizes are monotone across levels:
   [stile l d <= stile (l+1) d]. *)

open Tensor_lang

type t = {
  compute : Compute.t;
  num_levels : int;           (* L: schedulable cache levels *)
  cur_level : int;            (* in [0, L]; L = outermost = start *)
  stiles : int array array;   (* (L+1) rows; row l = spatial tiles at level l *)
  rtiles : int array array;   (* (L+1) rows; row l = reduce tiles at level l *)
  vthreads : int array;       (* per spatial dimension *)
  mutable fp : int64;         (* memoized fingerprint; 0 = not yet computed *)
  sext : int array;           (* cached spatial axis extents (from compute) *)
  rext : int array;           (* cached reduce axis extents (from compute) *)
  cfp : int;                  (* cached Compute.fingerprint of [compute] *)
}

let compute t = t.compute
let num_levels t = t.num_levels
let cur_level t = t.cur_level
let stile t ~level ~dim = t.stiles.(level).(dim)
let rtile t ~level ~dim = t.rtiles.(level).(dim)
let vthread t ~dim = t.vthreads.(dim)

(* Effective tile at a level: the raw tile widened to cover every inner
   level's tile.  Raw tiles are unconstrained across levels (this keeps the
   construction graph free of dead ends — an outer level that stopped
   growing never caps the levels below); all derived quantities use the
   effective values, which are monotone by construction. *)
let stile_eff t ~level ~dim =
  let size = ref t.stiles.(0).(dim) in
  for l = 1 to level do
    if t.stiles.(l).(dim) > !size then size := t.stiles.(l).(dim)
  done;
  !size

let rtile_eff t ~level ~dim =
  let size = ref t.rtiles.(0).(dim) in
  for l = 1 to level do
    if t.rtiles.(l).(dim) > !size then size := t.rtiles.(l).(dim)
  done;
  !size

let spatial_axes t = Array.of_list (Compute.spatial_axes t.compute)
let reduce_axes t = Array.of_list (Compute.reduce_axes t.compute)

(* Extents and axis counts are read in every hot analysis loop (benefit
   context, footprints, launch bounds), so they are cached in the
   record at construction instead of being rebuilt from the compute's axis
   lists per call.  The cached arrays are shared — callers only read them.
   The compute's structural hash is cached the same way: it feeds every
   fingerprint and [eval_equal] check, and walking the body per check would
   dominate them. *)
let num_spatial t = Array.length t.sext
let num_reduce t = Array.length t.rext
let spatial_extents t = t.sext
let reduce_extents t = t.rext

let extents_of compute =
  ( Array.of_list (List.map Axis.extent (Compute.spatial_axes compute)),
    Array.of_list (List.map Axis.extent (Compute.reduce_axes compute)) )

let create ?(num_levels = 2) compute =
  if num_levels < 1 then invalid_arg "Etir.create: num_levels < 1";
  let n_spatial = List.length (Compute.spatial_axes compute) in
  let n_reduce = List.length (Compute.reduce_axes compute) in
  let sext, rext = extents_of compute in
  { compute; num_levels; cur_level = num_levels;
    stiles = Array.make_matrix (num_levels + 1) n_spatial 1;
    rtiles = Array.make_matrix (num_levels + 1) (max n_reduce 1) 1;
    vthreads = Array.make n_spatial 1;
    fp = 0L; sext; rext; cfp = Int64.to_int (Compute.fingerprint compute) }

(* Structural invariants; used by tests and re-checked after every action. *)
let validate t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let sext = spatial_extents t and rext = reduce_extents t in
  let* () =
    check (t.cur_level >= 0 && t.cur_level <= t.num_levels) "cur_level range"
  in
  let* () =
    check (Array.length t.stiles = t.num_levels + 1) "stiles level count"
  in
  let rec check_dims l =
    if l > t.num_levels then Ok ()
    else
      let* () =
        check
          (Array.for_all (fun x -> x >= 1) t.stiles.(l)
          && Array.for_all (fun x -> x >= 1) t.rtiles.(l))
          "tile >= 1"
      in
      let* () =
        check
          (Array.for_all2 (fun tile ext -> tile <= ext) t.stiles.(l) sext)
          "spatial tile <= extent"
      in
      let* () =
        if Array.length rext = 0 then Ok ()
        else
          check
            (Array.for_all2 (fun tile ext -> tile <= ext) t.rtiles.(l) rext)
            "reduce tile <= extent"
      in
      check_dims (l + 1)
  in
  let* () = check_dims 0 in
  let* () =
    check
      (Array.for_all (fun v -> v >= 1) t.vthreads
      && Array.length t.vthreads = Array.length sext)
      "vthreads >= 1"
  in
  (* A vthread stripe is at least one element wide. *)
  check
    (Array.for_all2 (fun v tile -> v <= tile) t.vthreads t.stiles.(0))
    "vthreads <= thread tile"

let ceil_div a b = (a + b - 1) / b

(* Physical threads along dim i: block tile over thread tile.  Virtual
   threads split each physical thread's tile into [v] interleaved stripes
   (paper Fig. 3), creating more logical execution units than physical
   threads without changing the physical launch shape. *)
let physical_threads_dim t dim =
  ceil_div (stile_eff t ~level:1 ~dim) t.stiles.(0).(dim)

let logical_threads_dim t dim = physical_threads_dim t dim * t.vthreads.(dim)

let threads_per_block t =
  let n = num_spatial t in
  let rec go i acc = if i = n then acc else go (i + 1) (acc * physical_threads_dim t i) in
  go 0 1

let logical_threads_per_block t =
  let n = num_spatial t in
  let rec go i acc = if i = n then acc else go (i + 1) (acc * logical_threads_dim t i) in
  go 0 1

let grid_blocks t =
  let sext = spatial_extents t in
  let acc = ref 1 in
  Array.iteri
    (fun i ext -> acc := !acc * ceil_div ext (stile_eff t ~level:1 ~dim:i))
    sext;
  !acc

(* Number of level-[l] tile instances along the spatial dimensions. *)
let spatial_tiles_at t ~level =
  let sext = spatial_extents t in
  let acc = ref 1 in
  Array.iteri
    (fun i ext -> acc := !acc * ceil_div ext (stile_eff t ~level ~dim:i))
    sext;
  !acc

(* Number of reduction steps a level-[l] tile performs: the reduce domain
   split by the level-[l] reduce tile. *)
let reduce_steps_at t ~level =
  let rext = reduce_extents t in
  let acc = ref 1 in
  Array.iteri
    (fun j ext -> acc := !acc * ceil_div ext (rtile_eff t ~level ~dim:j))
    rext;
  !acc

(* Interval environment of one representative level-[l] tile placed at the
   origin: spatial axis i spans its level-l tile, reduce axis j spans its
   level-l reduce tile.  Affine accesses make footprints shift-invariant, so
   the origin tile is representative. *)
let tile_env t ~level name =
  let find_spatial () =
    let axes = spatial_axes t in
    let rec go i =
      if i = Array.length axes then None
      else if Axis.name axes.(i) = name then
        Some (Interval.v 0 (stile_eff t ~level ~dim:i - 1))
      else go (i + 1)
    in
    go 0
  in
  let find_reduce () =
    let axes = reduce_axes t in
    let rec go j =
      if j = Array.length axes then None
      else if Axis.name axes.(j) = name then
        Some (Interval.v 0 (rtile_eff t ~level ~dim:j - 1))
      else go (j + 1)
    in
    go 0
  in
  match find_spatial () with
  | Some iv -> iv
  | None -> (
    match find_reduce () with
    | Some iv -> iv
    | None -> invalid_arg (Fmt.str "Etir.tile_env: unknown axis %s" name))

let with_cur_level t cur_level =
  if cur_level < 0 || cur_level > t.num_levels then
    invalid_arg "Etir.with_cur_level: out of range";
  { t with cur_level }

let with_stile t ~level ~dim size =
  let stiles = Array.map Array.copy t.stiles in
  stiles.(level).(dim) <- size;
  { t with stiles; fp = 0L }

let with_rtile t ~level ~dim size =
  let rtiles = Array.map Array.copy t.rtiles in
  rtiles.(level).(dim) <- size;
  { t with rtiles; fp = 0L }

let with_vthread t ~dim v =
  let vthreads = Array.copy t.vthreads in
  vthreads.(dim) <- v;
  { t with vthreads; fp = 0L }

(* Re-aim a finished configuration at a same-structured compute definition
   with different extents (dynamic shapes, template dispatch).  Tile sizes
   are clamped to the new extents, which preserves the monotone-chain
   invariant; vthreads are clamped to the new thread tile. *)
let retarget t compute' =
  let spatial' = List.filter Axis.is_spatial (Compute.axes compute') in
  let reduce' = List.filter Axis.is_reduce (Compute.axes compute') in
  if List.length spatial' <> num_spatial t || List.length reduce' <> num_reduce t
  then invalid_arg "Etir.retarget: axis structure mismatch";
  let sext = Array.of_list (List.map Axis.extent spatial') in
  let rext = Array.of_list (List.map Axis.extent reduce') in
  let clamp_row ext row = Array.mapi (fun i s -> min s ext.(i)) row in
  let stiles = Array.map (clamp_row sext) t.stiles in
  let rtiles =
    if Array.length rext = 0 then Array.map Array.copy t.rtiles
    else Array.map (clamp_row rext) t.rtiles
  in
  let vthreads = Array.mapi (fun i v -> min v stiles.(0).(i)) t.vthreads in
  { t with compute = compute'; stiles; rtiles; vthreads; fp = 0L; sext; rext;
    cfp = Int64.to_int (Compute.fingerprint compute') }

(* 64-bit structural hash over everything the cost model reads: the
   compute's full structure (axes, input shapes, body — two computes with
   equal names and extents but different strides or operands must not share
   an entry), level count, every tile and the vthread vector.
   [cur_level] is deliberately excluded — it is a construction cursor, not
   part of the tensor program, so states differing only in it evaluate
   identically and should share dedup slots.  The hash is cached in the
   state (all update paths reset it), making repeated dedupe lookups on the
   same state nearly free. *)
let mix64 h v =
  let open Int64 in
  let z = add (logxor h (mul v 0x9E3779B97F4A7C15L)) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let fingerprint t =
  if t.fp <> 0L then t.fp
  else begin
    let h = ref (Int64.of_int t.cfp) in
    let add v = h := mix64 !h (Int64.of_int v) in
    add t.num_levels;
    Array.iter add (spatial_extents t);
    Array.iter add (reduce_extents t);
    Array.iter (Array.iter add) t.stiles;
    Array.iter (Array.iter add) t.rtiles;
    Array.iter add t.vthreads;
    let fp = if !h = 0L then 1L else !h in
    t.fp <- fp;
    fp
  end

(* Evaluation identity backing the fingerprint: dedupe re-checks this within
   a fingerprint bucket, so a fingerprint collision can never merge two
   distinct configurations.  Computes are told apart by their cached
   structural hash, so a check never re-walks the definition. *)
let eval_equal a b =
  a == b
  || (a.cfp = b.cfp
     && fingerprint a = fingerprint b
     && a.num_levels = b.num_levels
     && a.stiles = b.stiles && a.rtiles = b.rtiles
     && a.vthreads = b.vthreads)

(* Compact canonical descriptor; used as a state key by the construction
   graph and for deduplicating top results. *)
let signature t =
  let row r = String.concat "x" (List.map string_of_int (Array.to_list r)) in
  Fmt.str "%s|L%d@%d|s:%s|r:%s|v:%s"
    (Compute.name t.compute)
    t.num_levels t.cur_level
    (String.concat ";" (List.map row (Array.to_list t.stiles)))
    (String.concat ";" (List.map row (Array.to_list t.rtiles)))
    (row t.vthreads)

let equal a b = signature a = signature b

let pp ppf t =
  let row r =
    Fmt.str "[%s]" (String.concat "," (List.map string_of_int (Array.to_list r)))
  in
  Fmt.pf ppf "@[<v>etir %s (level %d/%d)@,stiles %s@,rtiles %s@,vthreads %s@]"
    (Compute.name t.compute) t.cur_level t.num_levels
    (String.concat " " (List.map row (Array.to_list t.stiles)))
    (String.concat " " (List.map row (Array.to_list t.rtiles)))
    (row t.vthreads)
