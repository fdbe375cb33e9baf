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

   A policy step needs only each edge's Eq. 1-3 inputs, not its child's
   record, so [score_edge] derives those from the parent alone: the edited
   level run's footprints, the traffic at the edited level, and the
   occupancy and ILP chunk when the child would rebuild them, all evaluated
   over a per-chain scratch row with one slot overridden.  Only the drawn
   edge's child is built, by [child].  Both evaluate a level through the
   same [fill_footprint] and [Traffic.bytes_into_row] arithmetic, so the
   scores are the ones a built child would give.

   The full rebuild ([of_etir]) stays available as the oracle: the
   equivalence property in test/costmodel asserts bit-for-bit equality of the
   two paths over random action chains, and [set_enabled false] forces every
   [child] through it.  [child] runs only for drawn children, so the
   [delta.incremental_builds] counter counts built children;
   [delta.edges_scored] counts scored edges.  The toggle does not reach the
   scorer; test/core pins its scores against [of_etir] on both sides of
   every edge. *)

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
   atomics underneath — distinct kernels optimising concurrently under
   GENSOR_JOBS>1 never tear them and [stats] stays a lock-free snapshot —
   but now readable alongside every other layer's counters from one
   place. *)
let full_builds = Trace.Counter.make "delta.full_builds"
let incremental_builds = Trace.Counter.make "delta.incremental_builds"
let levels_recomputed = Trace.Counter.make "delta.levels_recomputed"
let levels_reused = Trace.Counter.make "delta.levels_reused"
let edges_scored = Trace.Counter.make "delta.edges_scored"

let count_edges_scored n = Trace.Counter.add edges_scored n

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
  Trace.Counter.set levels_reused 0;
  Trace.Counter.set edges_scored 0

(* FLOPs one thread issues per innermost reduce chunk (the ILP term). *)
let thread_chunk_flops etir =
  let elems = ref (Sched.Etir.point_flops etir) in
  for dim = 0 to Sched.Etir.num_spatial etir - 1 do
    elems := !elems * Sched.Etir.stile etir ~level:0 ~dim
  done;
  for dim = 0 to Sched.Etir.num_reduce etir - 1 do
    elems := !elems * Sched.Etir.rtile etir ~level:0 ~dim
  done;
  !elems

(* The footprint charged at a level whose effective tiles are [row],
   written to [footprint.(level)]; returns the input footprint, which the
   traffic term shares (it dominates both).  [fill_level] and
   [score_edge] evaluate every level through this. *)
let fill_footprint etir row ~level ~footprint =
  let input =
    Tensor_lang.Footprint_plan.input_bytes (Sched.Etir.footprint_plan etir) row
  in
  footprint.(level) <-
    (if level = 1 then input else input + Footprint.output_bytes_row etir row);
  input

let fill_level etir ~level ~traffic ~footprint =
  let row = Sched.Etir.eff_row etir ~level in
  let input = fill_footprint etir row ~level ~footprint in
  traffic.(level) <- Traffic.bytes_into_row etir row ~input_bytes:input

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

(* --- Edge scoring ------------------------------------------------------ *)

type scratch = {
  sc_row : int array;
  sc_footprint : int array;
  sc_terms : float array;
  mutable sc_chunk_flops : int;
}

let scratch etir =
  let num_levels = Sched.Etir.num_levels etir in
  { sc_row =
      Array.make (Sched.Etir.num_spatial etir + Sched.Etir.num_reduce etir) 0;
    sc_footprint = Array.make (num_levels + 1) 0;
    sc_terms = Array.make 2 0.0;
    sc_chunk_flops = 0 }

(* A tile edit's child terms, from the parent alone.  The child's
   effective tiles differ from [before]'s in one slot, over the run of
   levels [level, upto) that [child]'s scan refills: eff'(k) =
   max(eff'(k-1), raw(k)), starting from the edited raw tile, until it
   meets the parent's value.  Each refilled level is evaluated over a copy
   of the parent's row with the slot overridden.  Traffic is derived only
   at the edited level (the only level Eq. 1 reads), occupancy and the ILP
   chunk only when [child] would rebuild them, and nothing once the
   capacity check fails. *)
let score_tile ~hw s ~before ~(parent : components) ~level ~dim ~spatial
    size =
  let open Sched in
  let num_levels = Etir.num_levels before in
  let n_spatial = Etir.num_spatial before in
  let slot = if spatial then dim else n_spatial + dim in
  (* Plain loops, not [Array.blit]: the rows are 3-4 ints and a blit is a
     C call per edge. *)
  for l = 0 to num_levels do
    s.sc_footprint.(l) <- parent.footprint.(l)
  done;
  s.sc_terms.(0) <- parent.traffic.(level);
  let eff1 = ref (Etir.eff_row before ~level:1).(slot) in
  let e =
    ref
      (if level = 0 then size
       else Int.max (Etir.eff_row before ~level:(level - 1)).(slot) size)
  in
  let k = ref level in
  while !k <= num_levels && !e <> (Etir.eff_row before ~level:!k).(slot) do
    let row = s.sc_row in
    let eff = Etir.eff_row before ~level:!k in
    for i = 0 to Array.length row - 1 do
      row.(i) <- eff.(i)
    done;
    row.(slot) <- !e;
    let input = fill_footprint before row ~level:!k ~footprint:s.sc_footprint in
    if !k = level then
      s.sc_terms.(0) <- Traffic.bytes_into_row before row ~input_bytes:input;
    if !k = 1 then eff1 := !e;
    incr k;
    if !k <= num_levels then
      e :=
        Int.max !e
          (if spatial then Etir.stile before ~level:!k ~dim
           else Etir.rtile before ~level:!k ~dim)
  done;
  Mem_check.ok_capacity_fp ~hw s.sc_footprint
  && begin
    (* [child]'s staleness rule: a level-0 spatial edit always moves the
       occupancy, other edits at levels 0/1 only through a refilled
       level-0/1 footprint. *)
    let occ_stale = level <= 1 && ((spatial && level = 0) || !k > level) in
    s.sc_terms.(1) <-
      (if not occ_stale then parent.occ.Occupancy.sm_occupancy
       else begin
         let sext = Etir.spatial_extents before in
         let tpb = ref 1 and grid = ref 1 in
         for d = 0 to n_spatial - 1 do
           let block =
             if spatial && d = dim then !eff1
             else Etir.stile_eff before ~level:1 ~dim:d
           in
           let thread =
             if spatial && level = 0 && d = dim then size
             else Etir.stile before ~level:0 ~dim:d
           in
           tpb := !tpb * ((block + thread - 1) / thread);
           grid := !grid * ((sext.(d) + block - 1) / block)
         done;
         Occupancy.sm_occupancy ~hw ~tpb:!tpb ~grid:!grid
           ~smem_bytes:s.sc_footprint.(1)
           ~reg_bytes_per_thread:s.sc_footprint.(0)
       end);
    s.sc_chunk_flops <-
      (if level <> 0 then parent.chunk_flops
       else begin
         let elems = ref (Etir.point_flops before) in
         for d = 0 to n_spatial - 1 do
           let tile =
             if spatial && d = dim then size
             else Etir.stile before ~level:0 ~dim:d
           in
           elems := !elems * tile
         done;
         for d = 0 to Etir.num_reduce before - 1 do
           let tile =
             if (not spatial) && d = dim then size
             else Etir.rtile before ~level:0 ~dim:d
           in
           elems := !elems * tile
         done;
         !elems
       end);
    true
  end

let score_edge ~hw s ~before ~(parent : components) (action : Sched.Action.t)
    target =
  match action with
  | Sched.Action.Tile { level; dim; _ } ->
    score_tile ~hw s ~before ~parent ~level ~dim ~spatial:true target
  | Sched.Action.Rtile { level; dim; _ } ->
    score_tile ~hw s ~before ~parent ~level ~dim ~spatial:false target
  | Sched.Action.Cache | Sched.Action.Set_vthread _ ->
    Mem_check.ok_capacity_fp ~hw parent.footprint

(* --- Dominance ------------------------------------------------------- *)

(* Lower-is-better summary of everything the aggregation consumes.  A state
   whose vector is pointwise >= a sibling's (strictly somewhere) can score no
   better under the monotone aggregation: traffic, thrash and conflict only
   lengthen service times; chunk, occupancy, tail and resident threads only
   raise throughput (negated here).  Saturating terms (the bandwidth knee,
   the occupancy-for-peak clamp, thrash's max-with-1) can absorb a strict
   component gap into a score *tie* — dominance pruning may therefore swap
   between exactly-tied states, but never past a strictly better one (see
   DESIGN.md §10).  Launch-infeasible states ([blocks_per_sm = 0]) have no
   vector: construction passes through them transiently and they must stay
   expandable.

   A sweep over many candidates writes their vectors side by side into one
   flat array ([write_dominance] at an offset, [dominates_in]), with the
   level capacities looked up once ([dominance_capacities]), so it
   allocates nothing per candidate. *)
let dominance_width (c : components) = (2 * Array.length c.traffic) + 6

let dominance_capacities ~(hw : Hardware.Gpu_spec.t) ~num_levels =
  Array.init (num_levels + 1) (fun level ->
      float_of_int
        (Hardware.Mem_level.capacity_bytes (Hardware.Gpu_spec.level hw level)))

let write_dominance ~caps (c : components) v ~off =
  if c.occ.Occupancy.blocks_per_sm = 0 then false
  else begin
    let num_levels = Array.length c.traffic - 1 in
    for level = 0 to num_levels do
      v.(off + level) <-
        (if level = num_levels then Float.max c.traffic.(level) c.compulsory
         else c.traffic.(level));
      v.(off + num_levels + 1 + level) <-
        Float.max 1.0 (float_of_int c.footprint.(level) /. caps.(level))
    done;
    let base = off + (2 * (num_levels + 1)) in
    v.(base) <- c.conflict_raw;
    v.(base + 1) <- -.float_of_int c.chunk_flops;
    v.(base + 2) <- -.c.occ.Occupancy.sm_occupancy;
    v.(base + 3) <- -.c.occ.Occupancy.tail_efficiency;
    v.(base + 4) <- -.float_of_int c.occ.Occupancy.global_threads;
    v.(base + 5) <- -.float_of_int c.occ.Occupancy.blocks_per_sm;
    true
  end

let dominance_vector ~hw (c : components) =
  let v = Array.make (dominance_width c) 0.0 in
  let caps =
    dominance_capacities ~hw ~num_levels:(Array.length c.traffic - 1)
  in
  if write_dominance ~caps c v ~off:0 then Some v else None

(* The [width] values of [a] from [a_off] pointwise <= those of [b] from
   [b_off], with at least one strict <. *)
let dominates_in (a : float array) ~a_off (b : float array) ~b_off ~width =
  let strict = ref false in
  let le = ref true in
  let i = ref 0 in
  while !le && !i < width do
    let x = a.(a_off + !i) and y = b.(b_off + !i) in
    if x > y then le := false else if x < y then strict := true;
    incr i
  done;
  !le && !strict

let dominates a b =
  let n = Array.length a in
  n = Array.length b && dominates_in a ~a_off:0 b ~b_off:0 ~width:n
