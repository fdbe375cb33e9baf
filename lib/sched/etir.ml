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

(* Everything derived from the compute alone, built eagerly when a state is
   created or retargeted and shared by every state derived from it.  Eager,
   not [Lazy.t]: the initial state is shared by every search chain's domain,
   and forcing one lazy value from two domains at once raises. *)
type consts = {
  sext : int array;           (* spatial axis extents *)
  rext : int array;           (* reduce axis extents *)
  cfp : int;                  (* Compute.fingerprint of the compute *)
  plan : Footprint_plan.t;    (* compiled per-access footprint analysis *)
  out_bytes : int;            (* Compute.output_bytes *)
  point_flops : int;          (* body FLOPs + 1 combine when reducing *)
}

(* Tile rows are never mutated after construction: the functional updates
   copy the rows they edit and share the others, so states along a
   construction chain share most of their rows.

   [eff] caches the effective tiles: row [l] holds the spatial dims' values
   then the reduce dims', the slot order of the footprint plan, so a row is
   exactly what the plan's evaluator reads. *)
type t = {
  compute : Compute.t;
  num_levels : int;           (* L: schedulable cache levels *)
  cur_level : int;            (* in [0, L]; L = outermost = start *)
  stiles : int array array;   (* (L+1) rows; row l = spatial tiles at level l *)
  rtiles : int array array;   (* (L+1) rows; row l = reduce tiles at level l *)
  vthreads : int array;       (* per spatial dimension *)
  eff : int array array;      (* (L+1) rows of num_spatial + num_reduce slots *)
  mutable fp : int64;         (* memoized fingerprint; 0 = not yet computed *)
  k : consts;
}

let compute t = t.compute
let num_levels t = t.num_levels
let cur_level t = t.cur_level
(* The tile readers are [@inline]: the edge scorer reads them per scored
   edge, and a bound-checked double index is over the default inlining
   size, so they would stay calls even across a non-opaque build. *)
let[@inline] stile t ~level ~dim = t.stiles.(level).(dim)
let[@inline] rtile t ~level ~dim = t.rtiles.(level).(dim)
let[@inline] vthread t ~dim = t.vthreads.(dim)

(* Effective tile at a level: the raw tile widened to cover every inner
   level's tile, eff(0) = raw(0) and eff(l) = max(eff(l-1), raw(l)).  Raw
   tiles are unconstrained across levels (this keeps the construction graph
   free of dead ends — an outer level that stopped growing never caps the
   levels below); all derived quantities use the effective values, which
   are monotone by construction.  They are cached in [eff], so these are
   reads. *)
let[@inline] stile_eff t ~level ~dim = t.eff.(level).(dim)
let[@inline] rtile_eff t ~level ~dim =
  t.eff.(level).(Array.length t.vthreads + dim)
let eff_row t ~level = t.eff.(level)

let spatial_axes t = Array.of_list (Compute.spatial_axes t.compute)
let reduce_axes t = Array.of_list (Compute.reduce_axes t.compute)

(* Extents, axis counts, the footprint plan and the compute's output bytes
   and per-point FLOPs are read in every hot analysis loop (benefit
   context, footprints, traffic, the ILP chunk, launch bounds), so they are
   cached at construction instead of being rebuilt from the compute's axis
   lists and body per call.  The cached arrays are shared — callers only
   read them.  The compute's structural hash is cached the same way: it
   feeds every fingerprint and [eval_equal] check, and walking the body per
   check would dominate them. *)
let num_spatial t = Array.length t.k.sext
let num_reduce t = Array.length t.k.rext
let spatial_extents t = t.k.sext
let reduce_extents t = t.k.rext
let footprint_plan t = t.k.plan
let output_bytes t = t.k.out_bytes
let point_flops t = t.k.point_flops

let consts_of compute =
  let spatial = Compute.spatial_axes compute in
  let reduce = Compute.reduce_axes compute in
  { sext = Array.of_list (List.map Axis.extent spatial);
    rext = Array.of_list (List.map Axis.extent reduce);
    cfp = Int64.to_int (Compute.fingerprint compute);
    plan = Footprint_plan.of_compute compute;
    out_bytes = Compute.output_bytes compute;
    point_flops =
      Expr.flops (Compute.body compute) + (if reduce = [] then 0 else 1) }

(* The effective-tile table of raw tile rows, built from scratch. *)
let eff_of ~n_spatial ~n_reduce stiles rtiles =
  let eff = Array.make (Array.length stiles) [||] in
  Array.iteri
    (fun l srow ->
      eff.(l) <-
        Array.init (n_spatial + n_reduce) (fun slot ->
            let raw =
              if slot < n_spatial then srow.(slot)
              else rtiles.(l).(slot - n_spatial)
            in
            if l = 0 then raw else Int.max eff.(l - 1).(slot) raw))
    stiles;
  eff

let create ?(num_levels = 2) compute =
  if num_levels < 1 then invalid_arg "Etir.create: num_levels < 1";
  let k = consts_of compute in
  let n_spatial = Array.length k.sext in
  let n_reduce = Array.length k.rext in
  let stiles = Array.make_matrix (num_levels + 1) n_spatial 1 in
  let rtiles = Array.make_matrix (num_levels + 1) (Int.max n_reduce 1) 1 in
  { compute; num_levels; cur_level = num_levels; stiles; rtiles;
    vthreads = Array.make n_spatial 1;
    eff = eff_of ~n_spatial ~n_reduce stiles rtiles;
    fp = 0L; k }

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

(* A state from whole rows: one effective-tile table and one [validate],
   instead of one functional update per tile.  Row shapes are checked
   first because [validate] assumes them. *)
let of_rows compute ~cur_level ~stiles ~rtiles ~vthreads =
  let k = consts_of compute in
  let n_spatial = Array.length k.sext and n_reduce = Array.length k.rext in
  let levels = Array.length stiles in
  let width n rows = Array.for_all (fun r -> Array.length r = n) rows in
  if levels < 2 || Array.length rtiles <> levels then Error "level count"
  else if not (width n_spatial stiles && width n_reduce rtiles) then
    Error "tile row width"
  else if Array.length vthreads <> n_spatial then Error "vthread row width"
  else begin
    (* A reduce-free compute keeps [create]'s one-slot reduce rows. *)
    let rtiles =
      if n_reduce = 0 then Array.map (fun _ -> [| 1 |]) rtiles else rtiles
    in
    let t =
      { compute; num_levels = levels - 1; cur_level; stiles; rtiles; vthreads;
        eff = eff_of ~n_spatial ~n_reduce stiles rtiles;
        fp = 0L; k }
    in
    Result.map (fun () -> t) (validate t)
  end

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

let grid_blocks t =
  let sext = spatial_extents t in
  let acc = ref 1 in
  Array.iteri
    (fun i ext -> acc := !acc * ceil_div ext (stile_eff t ~level:1 ~dim:i))
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

let with_cur_level t cur_level =
  if cur_level < 0 || cur_level > t.num_levels then
    invalid_arg "Etir.with_cur_level: out of range";
  { t with cur_level }

(* Copy the edited row only; the other rows are shared (never mutated). *)
let with_row rows ~level ~dim size =
  let rows = Array.copy rows in
  let row = Array.copy rows.(level) in
  row.(dim) <- size;
  rows.(level) <- row;
  rows

(* The effective table after column [col] of [raw] (the new raw rows)
   changed at [level], for table slot [slot].  Effective tiles are monotone
   across levels, so the rows that change form one run from [level] up:
   once a level's value matches the old one, every higher level does too.
   Only that run's rows are copied; the rest stay shared. *)
let with_eff eff ~level ~slot raw ~col =
  let out = ref eff in
  let k = ref level in
  let changed = ref true in
  while !changed && !k < Array.length eff do
    let r = raw.(!k).(col) in
    let e = if !k = 0 then r else Int.max !out.(!k - 1).(slot) r in
    if e = eff.(!k).(slot) then changed := false
    else begin
      if !out == eff then out := Array.copy eff;
      let row = Array.copy eff.(!k) in
      row.(slot) <- e;
      !out.(!k) <- row;
      incr k
    end
  done;
  !out

let with_stile t ~level ~dim size =
  let stiles = with_row t.stiles ~level ~dim size in
  { t with stiles; eff = with_eff t.eff ~level ~slot:dim stiles ~col:dim;
    fp = 0L }

let with_rtile t ~level ~dim size =
  let rtiles = with_row t.rtiles ~level ~dim size in
  { t with rtiles;
    eff =
      with_eff t.eff ~level ~slot:(Array.length t.vthreads + dim) rtiles
        ~col:dim;
    fp = 0L }

let with_vthread t ~dim v =
  let vthreads = Array.copy t.vthreads in
  vthreads.(dim) <- v;
  { t with vthreads; fp = 0L }

(* Re-aim a finished configuration at a same-structured compute definition
   with different extents (dynamic shapes, template dispatch).  Tile sizes
   are clamped to the new extents, which preserves the monotone-chain
   invariant; vthreads are clamped to the new thread tile. *)
let retarget t compute' =
  let k = consts_of compute' in
  if Array.length k.sext <> num_spatial t || Array.length k.rext <> num_reduce t
  then invalid_arg "Etir.retarget: axis structure mismatch";
  let clamp_row ext row = Array.mapi (fun i s -> Int.min s ext.(i)) row in
  let stiles = Array.map (clamp_row k.sext) t.stiles in
  let rtiles =
    if Array.length k.rext = 0 then t.rtiles
    else Array.map (clamp_row k.rext) t.rtiles
  in
  let vthreads = Array.mapi (fun i v -> Int.min v stiles.(0).(i)) t.vthreads in
  let eff =
    eff_of ~n_spatial:(Array.length k.sext) ~n_reduce:(Array.length k.rext)
      stiles rtiles
  in
  { t with compute = compute'; stiles; rtiles; vthreads; eff; fp = 0L; k }

(* 64-bit structural hash over everything the cost model reads: the
   compute's full structure (axes, input shapes, body — two computes with
   equal names and extents but different strides or operands must not share
   an entry), level count, every tile and the vthread vector.
   [cur_level] is deliberately excluded — it is a construction cursor, not
   part of the tensor program, so states differing only in it evaluate
   identically and should share dedup slots.  The hash is cached in the
   state (all update paths reset it), making repeated dedupe lookups on the
   same state nearly free.

   [mix64] is inlined into plain loops over a local accumulator, so the
   hash stays unboxed: a closure over the accumulator or a call per value
   would box an [Int64] on every step. *)
let[@inline] mix64 h v =
  let open Int64 in
  let z = add (logxor h (mul v 0x9E3779B97F4A7C15L)) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] mix_row h (row : int array) =
  let h = ref h in
  for i = 0 to Array.length row - 1 do
    h := mix64 !h (Int64.of_int row.(i))
  done;
  !h

let fingerprint t =
  if t.fp <> 0L then t.fp
  else begin
    let h = mix64 (Int64.of_int t.k.cfp) (Int64.of_int t.num_levels) in
    let h = ref (mix_row (mix_row h t.k.sext) t.k.rext) in
    for l = 0 to Array.length t.stiles - 1 do
      h := mix_row !h t.stiles.(l)
    done;
    for l = 0 to Array.length t.rtiles - 1 do
      h := mix_row !h t.rtiles.(l)
    done;
    let h = mix_row !h t.vthreads in
    let fp = if h = 0L then 1L else h in
    t.fp <- fp;
    fp
  end

(* Evaluation identity backing the fingerprint: dedupe re-checks this within
   a fingerprint bucket, so a fingerprint collision can never merge two
   distinct configurations.  Computes are told apart by their cached
   structural hash, so a check never re-walks the definition. *)
let eval_equal a b =
  a == b
  || (a.k.cfp = b.k.cfp
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
