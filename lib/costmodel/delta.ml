(* Incremental cost-model evaluation along construction edges.

   [Model.evaluate] decomposes into a structured component record — per-level
   traffic and footprint terms, the occupancy snapshot, the raw bank-conflict
   degree, the ILP chunk — followed by a cheap arithmetic aggregation
   ([Model.aggregate]).  Every component is a pure function of a slice of the
   state, and every construction action ([Sched.Action.t]) declares which
   slices it touches ([Sched.Action.invalidation]).  [child] therefore
   recomputes only the invalidated components of a successor state and reuses
   the rest from the parent, which is where construction spends its time:
   effective tiles at level [k] aggregate raw tiles at levels [0..k], so a
   tile edit at level [l] leaves every per-level term below [l] untouched,
   and [Cache] (the most frequent action late in a chain) recomputes nothing.

   Components are frozen once built — [child] copies the per-level arrays
   before rewriting the stale suffix — so records may be shared freely across
   the search frontier and with derived [Metrics.t] values.

   The full rebuild ([of_etir]) stays available as the oracle: the
   equivalence property in test/costmodel asserts bit-for-bit equality of the
   two paths over random action chains, and [set_enabled false] forces every
   [child] through it. *)

type components = {
  traffic : float array;
      (* bytes into ETIR level l, levels 0..L; UNFLOORED at L — the
         compulsory floor is applied at aggregation so Eq.1 benefits keep
         seeing raw Q values *)
  footprint : int array;  (* capacity-charged bytes at levels 0..L *)
  compulsory : float;     (* cold-miss floor, constant along a chain *)
  occ : Occupancy.t;
  conflict_raw : float;   (* raw warp serialisation degree, undiluted *)
  chunk_flops : int;      (* per-thread innermost chunk (ILP term) *)
  total_flops : float;    (* constant along a chain *)
}

(* Gate: default on; the transparency tests switch it off to force full
   rebuilds. *)
let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Build counters live in the unified registry (Trace.Counter): still
   atomics underneath — concurrent anneal chains under GENSOR_JOBS>1 never
   tear them and [stats] stays a lock-free snapshot — but now readable
   alongside every other layer's counters from one place. *)
let full_builds = Trace.Counter.make "delta.full_builds"
let incremental_builds = Trace.Counter.make "delta.incremental_builds"
let levels_recomputed = Trace.Counter.make "delta.levels_recomputed"
let levels_reused = Trace.Counter.make "delta.levels_reused"

type stats = {
  st_full_builds : int;
  st_incremental_builds : int;
  st_levels_recomputed : int;
  st_levels_reused : int;
}

let stats () =
  { st_full_builds = Trace.Counter.get full_builds;
    st_incremental_builds = Trace.Counter.get incremental_builds;
    st_levels_recomputed = Trace.Counter.get levels_recomputed;
    st_levels_reused = Trace.Counter.get levels_reused }

let reset_stats () =
  Trace.Counter.set full_builds 0;
  Trace.Counter.set incremental_builds 0;
  Trace.Counter.set levels_recomputed 0;
  Trace.Counter.set levels_reused 0

let pp_stats ppf s =
  Fmt.pf ppf "full %d  incremental %d  levels recomputed %d  reused %d"
    s.st_full_builds s.st_incremental_builds s.st_levels_recomputed
    s.st_levels_reused

(* FLOPs one thread issues per innermost reduce chunk.  Lives here (not in
   Model) so components need nothing from the aggregation layer; Model
   re-exports it under its historical name. *)
let thread_chunk_flops etir =
  let open Tensor_lang in
  let compute = Sched.Etir.compute etir in
  let body_flops =
    Expr.flops (Compute.body compute)
    + (if Compute.reduce_axes compute = [] then 0 else 1)
  in
  let elems = ref body_flops in
  for dim = 0 to Sched.Etir.num_spatial etir - 1 do
    elems := !elems * Sched.Etir.stile etir ~level:0 ~dim
  done;
  for dim = 0 to Sched.Etir.num_reduce etir - 1 do
    elems := !elems * Sched.Etir.rtile etir ~level:0 ~dim
  done;
  !elems

(* One per-level slot: the input footprint is computed once and shared
   between the footprint and traffic terms (it dominates both). *)
let fill_level etir ~level ~traffic ~footprint =
  let input = Footprint.input_bytes etir ~level in
  footprint.(level) <-
    (if level = 1 then input else input + Footprint.output_bytes etir ~level);
  traffic.(level) <- Traffic.bytes_into_given etir ~level ~input_bytes:input

let occupancy_of ~hw etir ~footprint =
  Occupancy.of_parts ~hw
    ~tpb:(Sched.Etir.threads_per_block etir)
    ~grid:(Sched.Etir.grid_blocks etir)
    ~smem_bytes:footprint.(1)
    ~reg_bytes_per_thread:footprint.(0)

let of_etir ~(hw : Hardware.Gpu_spec.t) etir =
  Trace.Counter.incr full_builds;
  let num_levels = Sched.Etir.num_levels etir in
  let traffic = Array.make (num_levels + 1) 0.0 in
  let footprint = Array.make (num_levels + 1) 0 in
  for level = 0 to num_levels do
    fill_level etir ~level ~traffic ~footprint
  done;
  { traffic; footprint;
    compulsory = Traffic.compulsory_bytes etir;
    occ = occupancy_of ~hw etir ~footprint;
    conflict_raw = Conflict.raw_degree etir ~hw;
    chunk_flops = thread_chunk_flops etir;
    total_flops =
      float_of_int
        (Tensor_lang.Compute.total_flops (Sched.Etir.compute etir)) }

let child ~(hw : Hardware.Gpu_spec.t) ~before ~(parent : components) ~action
    next =
  if not (Atomic.get enabled_flag) then of_etir ~hw next
  else begin
    Trace.Counter.incr incremental_builds;
    let inv = Sched.Action.invalidation action in
    let num_levels = Sched.Etir.num_levels next in
    (* The per-level terms at level [l] are functions of the *effective*
       tiles at [l] alone.  A tiling action edits one raw tile, and the
       edited dimension's effective tile is monotone across levels
       (eff(k) = max(eff(k-1), raw(k))), so the stale levels form one
       contiguous run [from, upto): once the effective tile matches the
       before state's at some level, it matches at every higher level and
       the scan stops — frequently with nothing to refill at all (a raw
       edit shadowed by a larger tile below). *)
    let refill_upto from =
      match action with
      | Sched.Action.Tile { dim; _ } ->
        let rec scan level =
          if
            level > num_levels
            || Sched.Etir.stile_eff before ~level ~dim
               = Sched.Etir.stile_eff next ~level ~dim
          then level
          else scan (level + 1)
        in
        scan from
      | Sched.Action.Rtile { dim; _ } ->
        let rec scan level =
          if
            level > num_levels
            || Sched.Etir.rtile_eff before ~level ~dim
               = Sched.Etir.rtile_eff next ~level ~dim
          then level
          else scan (level + 1)
        in
        scan from
      | Sched.Action.Cache | Sched.Action.Set_vthread _ -> num_levels + 1
    in
    let traffic, footprint, from, upto =
      match inv.Sched.Action.inv_levels_from with
      | None -> (parent.traffic, parent.footprint, 0, 0)
      | Some from ->
        let upto = refill_upto from in
        if upto = from then (parent.traffic, parent.footprint, from, upto)
        else begin
          let traffic = Array.copy parent.traffic in
          let footprint = Array.copy parent.footprint in
          for level = from to upto - 1 do
            fill_level next ~level ~traffic ~footprint
          done;
          (traffic, footprint, from, upto)
        end
    in
    let dirty = upto - from in
    Trace.Counter.add levels_recomputed dirty;
    Trace.Counter.add levels_reused (num_levels + 1 - dirty);
    (* Occupancy reads the raw thread tile (threads per block), the level-1
       effective tile (grid) and the level-0/1 footprints: a level-0 spatial
       tile edit always moves it, anything else only if a level-0/1 slot was
       actually refilled. *)
    let occ_stale =
      inv.Sched.Action.inv_occupancy
      &&
      match action with
      | Sched.Action.Tile { level = 0; _ } -> true
      | _ -> from <= 1 && upto > from
    in
    { traffic; footprint;
      compulsory = parent.compulsory;
      occ = (if occ_stale then occupancy_of ~hw next ~footprint else parent.occ);
      conflict_raw =
        (if inv.Sched.Action.inv_conflict then Conflict.raw_degree next ~hw
         else parent.conflict_raw);
      chunk_flops =
        (if inv.Sched.Action.inv_chunk then thread_chunk_flops next
         else parent.chunk_flops);
      total_flops = parent.total_flops }
  end

(* --- Dominance ------------------------------------------------------- *)

(* Lower-is-better summary of everything the aggregation consumes.  A state
   whose vector is pointwise >= a sibling's (strictly somewhere) can score no
   better under the monotone aggregation: traffic, thrash and conflict only
   lengthen service times; chunk, occupancy, tail and resident threads only
   raise throughput (negated here).  Saturating terms (the bandwidth knee,
   the occupancy-for-peak clamp, thrash's max-with-1) can absorb a strict
   component gap into a score *tie* — dominance pruning may therefore swap
   between exactly-tied states, but never past a strictly better one (see
   DESIGN.md §10).  Launch-infeasible states ([blocks_per_sm = 0]) return
   [None]: construction passes through them transiently and they must stay
   expandable. *)
let dominance_vector ~(hw : Hardware.Gpu_spec.t) (c : components) =
  if c.occ.Occupancy.blocks_per_sm = 0 then None
  else begin
    let num_levels = Array.length c.traffic - 1 in
    let v = Array.make ((2 * (num_levels + 1)) + 6) 0.0 in
    for level = 0 to num_levels do
      v.(level) <-
        (if level = num_levels then Float.max c.traffic.(level) c.compulsory
         else c.traffic.(level));
      let cap =
        Hardware.Mem_level.capacity_bytes (Hardware.Gpu_spec.level hw level)
      in
      v.(num_levels + 1 + level) <-
        Float.max 1.0 (float_of_int c.footprint.(level) /. float_of_int cap)
    done;
    let base = 2 * (num_levels + 1) in
    v.(base) <- c.conflict_raw;
    v.(base + 1) <- -.float_of_int c.chunk_flops;
    v.(base + 2) <- -.c.occ.Occupancy.sm_occupancy;
    v.(base + 3) <- -.c.occ.Occupancy.tail_efficiency;
    v.(base + 4) <- -.float_of_int c.occ.Occupancy.global_threads;
    v.(base + 5) <- -.float_of_int c.occ.Occupancy.blocks_per_sm;
    Some v
  end

(* [dominates a b]: [a] pointwise <= [b] with at least one strict <. *)
let dominates a b =
  let n = Array.length a in
  if n <> Array.length b then false
  else begin
    let strict = ref false in
    let le = ref true in
    let i = ref 0 in
    while !le && !i < n do
      if a.(!i) > b.(!i) then le := false
      else if a.(!i) < b.(!i) then strict := true;
      incr i
    done;
    !le && !strict
  end
