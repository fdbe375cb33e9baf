(* Shared-memory bank-conflict model.

   Consecutive logical threads along the innermost spatial dimension access
   shared memory with a stride equal to their per-thread tile width.  Threads
   of one warp that map to the same bank serialise.  Virtual threads
   interleave the work of [V] logical threads into one physical thread at
   unit stride (paper Fig. 3), dividing the effective stride — this is the
   mechanism behind the paper's Eq. 3 benefit. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Stride, in bank words, between the shared-memory accesses of consecutive
   physical threads of a warp. *)
let access_stride_words etir ~bank_width_bytes =
  let n = Sched.Etir.num_spatial etir in
  if n = 0 then 1
  else begin
    let dim = n - 1 in
    let elem_bytes = 4 in
    let thread_tile = Sched.Etir.stile etir ~level:0 ~dim in
    let v = Sched.Etir.vthread etir ~dim in
    (* V virtual threads interleave V adjacent thread tiles, so the physical
       stride shrinks by V, never below one element. *)
    let stride_elems = Int.max 1 (thread_tile / v) in
    Int.max 1 (stride_elems * elem_bytes / bank_width_bytes)
  end

(* Raw serialisation degree >= 1: how many shared-memory transactions replace
   the conflict-free single transaction of a warp. *)
let raw_degree etir ~(hw : Hardware.Gpu_spec.t) =
  let smem = Hardware.Gpu_spec.level hw 1 in
  let banks = Hardware.Mem_level.banks smem in
  if banks <= 1 then 1.0
  else begin
    let warp = Hardware.Gpu_spec.warp_size hw in
    let stride = access_stride_words etir ~bank_width_bytes:(Hardware.Mem_level.bank_width_bytes smem) in
    let distinct = banks / gcd stride banks in
    let lanes = Int.min warp banks in
    float_of_int (Int.max 1 (lanes / Int.max 1 distinct))
  end

(* Effective slowdown of the shared-memory path.  Only a fraction of a real
   kernel's shared-memory transactions follow the conflicted pattern (the
   rest are broadcasts or already coalesced), so the raw degree is diluted
   before it scales the service time. *)
let factor ?(dilution = 0.15) etir ~hw =
  1.0 +. ((raw_degree etir ~hw -. 1.0) *. dilution)
