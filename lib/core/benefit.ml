(* The paper's transition-benefit formulas (§IV-B, Eq. 1-3).

   Benefits are purely analytical: they are computed from the tensor
   program's traffic/footprint and the device's theoretical figures, never by
   running the cost model's full pipeline — this is what lets construction
   avoid per-step profiling.  A benefit > 1 means the action is expected to
   speed the program up; shrink (inverse-tiling) actions naturally receive
   the reciprocal ratio, which keeps backtracking possible at low
   probability. *)

open Sched

(* Eq. 1: the tiling benefit balances the reduction in memory traffic
   against the increase in memory footprint,
   Benefit = (Q(T)/Q(T')) / (F(T')/F(T))^β.
   Q and F are taken at the level the action modifies.  β < 1 because the
   footprint's hard constraint is the capacity check — the exponent only
   breaks ties toward footprint-lean configurations.  (The paper's printed
   form, Q·F'/(Q'·F), is exactly 2 for every GEMM grow action and therefore
   carries no gradient; we read the prose intent instead.)

   At the register level the same action also widens the per-thread unroll
   chunk, so the benefit carries an instruction-level-parallelism factor —
   the paper's unroll primitive (Table I) folded into register tiling. *)
let footprint_exponent = 0.25

(* Sharpens the traffic gradient so grow:shrink odds are ~6:1 instead of
   ~1.4:1 — a plain Q/Q' ratio makes the chain a nearly unbiased random walk
   that cannot cover 13 doublings per dimension in a level's budget. *)
let traffic_exponent = 3.0
let ilp_overhead = 8.0

let ilp_eff_of_chunk chunk =
  let chunk = float_of_int chunk in
  chunk /. (chunk +. ilp_overhead)

(* The occupancy an Eq. 1 ratio reads, floored so an infeasible side
   cannot divide by zero. *)
let[@inline] occ_floor occ = Float.max 0.02 occ

(* Eq. 1 over its scalar inputs: Q and F at the modified level before and
   after the edge, the SM occupancies and the per-thread ILP chunks.

   The occupancy ratio is the parallelism factor: the paper's hardware
   guidance includes "parallelism features" (§III); without this term
   nothing drives block-tile growth on operators whose traffic barely
   depends on it (GEMV, pooling), which is precisely the multi-objective
   edge over Roller's single objective.  Inlined so the edge scorer passes
   its floats unboxed. *)
let[@inline] tiling ~level ~q ~q' ~f ~f' ~occ ~occ' ~chunk ~chunk' =
  let f = float_of_int f and f' = float_of_int f' in
  if q' <= 0.0 || f <= 0.0 || f' <= 0.0 then 0.0
  else begin
    let traffic_gain = Float.pow (q /. q') traffic_exponent in
    let footprint_cost = Float.pow (f' /. f) footprint_exponent in
    let base = traffic_gain /. footprint_cost in
    let base = base *. (occ_floor occ' /. occ_floor occ) in
    if level = 0 then
      base *. (ilp_eff_of_chunk chunk' /. ilp_eff_of_chunk chunk)
    else base
  end

(* Eq. 2: Benefit_caching = (L_low + S/B_low) / (L_high + S/B_high).
   Moving the working set S (the footprint at level [cur - 1]) from the
   slower memory feeding level [cur] into the next faster level. *)
let caching_ratio ~(hw : Hardware.Gpu_spec.t) ~cur ~s_data =
  let s_data = Int.max s_data 1 in
  let low = Hardware.Gpu_spec.level hw (cur + 1) in
  let high = Hardware.Gpu_spec.level hw cur in
  let clock = Hardware.Gpu_spec.clock_ghz hw in
  let t_low = Hardware.Mem_level.transfer_seconds low ~clock_ghz:clock ~bytes:s_data in
  let t_high = Hardware.Mem_level.transfer_seconds high ~clock_ghz:clock ~bytes:s_data in
  if t_high <= 0.0 then 0.0 else t_low /. t_high

let caching ~hw etir =
  let cur = Etir.cur_level etir in
  if cur <= 0 then 0.0
  else
    caching_ratio ~hw ~cur
      ~s_data:(Costmodel.Footprint.bytes_at etir ~level:(cur - 1))

(* Eq. 3: Benefit_vThread = ceil(x/W) / ceil(x/(V'·W)) with V normalised so
   the ratio compares the current V against the proposed V'.  x is the
   per-thread stripe width in bytes along the innermost-varying dimension,
   from the level-0 tile [stile0]. *)
let vthread_ratio ~(hw : Hardware.Gpu_spec.t) ~stile0 ~v ~v' =
  let smem = Hardware.Gpu_spec.level hw 1 in
  let w = Hardware.Mem_level.bank_width_bytes smem in
  let elem_bytes = 4 in
  let x = stile0 * elem_bytes in
  let conflicts = float_of_int ((x + (v * w) - 1) / (v * w)) in
  let conflicts' = float_of_int ((x + (v' * w) - 1) / (v' * w)) in
  if conflicts' <= 0.0 then 0.0 else conflicts /. conflicts'

let vthread ~hw ~before ~after ~dim =
  vthread_ratio ~hw
    ~stile0:(Etir.stile before ~level:0 ~dim)
    ~v:(Etir.vthread before ~dim) ~v':(Etir.vthread after ~dim)

(* The raw Eq. 2 ratio lives on a different scale than the Eq. 1/Eq. 3
   ratios (memory-level latency gaps are 3-8x while tiling gains hover near
   2x), so it is squashed to (0, 1) before the annealing multiplier scales
   it; otherwise the cache switch fires before a level's tiles have grown. *)
let squash ratio = ratio /. (1.0 +. ratio)

(* Benefit of one legal transition [before --action--> after], from scratch:
   both sides' component records are built and fed to the scalar Eq. 1-3
   forms.  Zero when the successor violates a cache capacity (the paper's
   memory check).  Launch limits are not checked here: construction may
   pass through transiently launch-infeasible states (block tiles grow
   before thread tiles exist) and final selection filters them.  The
   oracle the edge scorer is tested against. *)
let of_action ~hw ~before ~after (action : Action.t) =
  let b = Costmodel.Delta.of_etir ~hw before in
  let a = Costmodel.Delta.of_etir ~hw after in
  let open Costmodel.Delta in
  if not (Costmodel.Mem_check.ok_capacity_fp ~hw a.footprint) then 0.0
  else
    match action with
    | Action.Tile { level; _ } | Action.Rtile { level; _ } ->
      tiling ~level ~q:b.traffic.(level) ~q':a.traffic.(level)
        ~f:b.footprint.(level) ~f':a.footprint.(level)
        ~occ:b.occ.Costmodel.Occupancy.sm_occupancy
        ~occ':a.occ.Costmodel.Occupancy.sm_occupancy ~chunk:b.chunk_flops
        ~chunk':a.chunk_flops
    | Action.Cache ->
      let cur = Etir.cur_level before in
      squash (caching_ratio ~hw ~cur ~s_data:b.footprint.(cur - 1))
    | Action.Set_vthread { dim; _ } -> vthread ~hw ~before ~after ~dim

(* [of_action] for the legal edge [before --action-->] with
   [target = Action.target before action], without building the child:
   [before]'s side is its record [parent], the child's side is what
   [Delta.score_edge] leaves in the chain's scratch [s]. *)
let of_edge ~hw s ~before ~(parent : Costmodel.Delta.components)
    (action : Action.t) target =
  if not (Costmodel.Delta.score_edge ~hw s ~before ~parent action target)
  then 0.0
  else
    let open Costmodel.Delta in
    match action with
    | Action.Tile { level; _ } | Action.Rtile { level; _ } ->
      tiling ~level ~q:parent.traffic.(level) ~q':s.sc_terms.(0)
        ~f:parent.footprint.(level) ~f':s.sc_footprint.(level)
        ~occ:parent.occ.Costmodel.Occupancy.sm_occupancy
        ~occ':s.sc_terms.(1) ~chunk:parent.chunk_flops
        ~chunk':s.sc_chunk_flops
    | Action.Cache ->
      let cur = Etir.cur_level before in
      squash (caching_ratio ~hw ~cur ~s_data:parent.footprint.(cur - 1))
    | Action.Set_vthread { dim; _ } ->
      vthread_ratio ~hw
        ~stile0:(Etir.stile before ~level:0 ~dim)
        ~v:(Etir.vthread before ~dim) ~v':target
