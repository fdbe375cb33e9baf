open Sched

let hw = Hardware.Presets.rtx4090
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gemm_etir ?(m = 256) ?(n = 256) ?(k = 256) () =
  Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()))

(* A hand-checkable GEMM configuration: block 32x16, thread 4x4, rtile1 8. *)
let configured () =
  let e = gemm_etir () in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 2 in
  Etir.with_cur_level e 0

(* ---------- Footprint ---------- *)

let test_footprint_gemm () =
  let e = configured () in
  (* Level-1 tile: A slice 32x8, B slice 8x16, in f32. *)
  check_int "input bytes at smem" ((32 * 8 * 4) + (8 * 16 * 4))
    (Costmodel.Footprint.input_bytes e ~level:1);
  (* Registers include the 4x4 accumulator. *)
  check_int "register bytes"
    (((4 * 2 * 4) + (2 * 4 * 4)) + (4 * 4 * 4))
    (Costmodel.Footprint.bytes_at e ~level:0);
  (* Shared memory excludes the accumulator. *)
  check_int "smem excludes accumulator"
    (Costmodel.Footprint.input_bytes e ~level:1)
    (Costmodel.Footprint.bytes_at e ~level:1)

let test_footprint_conv_halo () =
  (* A strided conv tile's input footprint includes the halo. *)
  let op =
    Ops.Conv.conv2d ~batch:1 ~in_channels:4 ~out_channels:4 ~height:16
      ~width:16 ~kernel:3 ~stride:2 ()
  in
  let e = Etir.create (Ops.Op.compute op) in
  (* Output tile 2x2 with kernel 3, stride 2: input slice spans
     2*(2-1)+3 = 5 per spatial dim. *)
  let e = Etir.with_stile e ~level:1 ~dim:2 2 in
  let e = Etir.with_stile e ~level:1 ~dim:3 2 in
  let e = Etir.with_rtile e ~level:1 ~dim:1 3 in
  let e = Etir.with_rtile e ~level:1 ~dim:2 3 in
  let elems = Costmodel.Footprint.input_elems e ~level:1 in
  let input_elems = List.assoc "I" elems in
  check_int "halo counted" (1 * 1 * 5 * 5) input_elems

(* Growing any tile never shrinks the footprint. *)
let prop_footprint_monotone =
  QCheck.Test.make ~count:300 ~name:"footprint monotone under tile growth"
    QCheck.(make Gen.(triple (int_range 0 2) (int_range 0 1) (int_range 0 500)))
    (fun (level, dim, seed) ->
      let rng = Rng.create ~seed in
      (* Random starting point via a short random walk. *)
      let e = ref (gemm_etir ()) in
      for _ = 1 to 10 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      match Action.apply !e (Action.Tile { level; dim; dir = Action.Grow }) with
      | None -> true
      | Some grown ->
        Costmodel.Footprint.bytes_at grown ~level
        >= Costmodel.Footprint.bytes_at !e ~level)

(* ---------- Traffic ---------- *)

let test_traffic_gemm_formula () =
  let e = configured () in
  (* Classic formula: (M/tm)(N/tn)(K/tk) * (tm*tk + tk*tn) * 4 + out. *)
  let blocks = 256 / 32 * (256 / 16) in
  let steps = 256 / 8 in
  let per_tile = ((32 * 8) + (8 * 16)) * 4 in
  let expected =
    (float_of_int (blocks * steps) *. float_of_int per_tile)
    +. float_of_int (256 * 256 * 4)
  in
  Alcotest.(check (float 1.0))
    "smem fill traffic" expected
    (Costmodel.Traffic.bytes_into e ~level:1)

let test_traffic_compulsory_floor () =
  let e = gemm_etir () in
  (* Whatever the configuration, DRAM traffic never undercuts one read of
     each input plus one write of the output. *)
  Alcotest.(check bool)
    "dram traffic >= compulsory" true
    (Costmodel.Traffic.dram_bytes e >= Costmodel.Traffic.compulsory_bytes e)

let prop_traffic_positive =
  QCheck.Test.make ~count:200 ~name:"traffic positive at every level"
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 20 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      Array.for_all (fun t -> t > 0.0) (Costmodel.Traffic.all_levels !e))

(* ---------- Conflict ---------- *)

let test_conflict_strides () =
  let e = configured () in
  (* Thread tile width 4 along the innermost dim: stride 4 words. *)
  check_int "stride words" 4
    (Costmodel.Conflict.access_stride_words e ~bank_width_bytes:4);
  let raw = Costmodel.Conflict.raw_degree e ~hw in
  Alcotest.(check (float 1e-9)) "raw degree for stride 4" 4.0 raw;
  (* Vthreads divide the stride. *)
  let e' = Etir.with_vthread e ~dim:1 4 in
  Alcotest.(check (float 1e-9))
    "vthreads clear the conflict" 1.0
    (Costmodel.Conflict.raw_degree e' ~hw);
  Alcotest.(check bool)
    "dilution softens" true
    (Costmodel.Conflict.factor e ~hw < raw)

(* ---------- Occupancy ---------- *)

let test_occupancy_limits () =
  let e = configured () in
  let occ = Costmodel.Occupancy.of_etir e ~hw in
  (* 8x4 = 32 threads per block; tiny block: thread-slot limited. *)
  Alcotest.(check bool) "resident > 0" true (occ.Costmodel.Occupancy.blocks_per_sm > 0);
  Alcotest.(check bool)
    "occupancy in range" true
    (occ.Costmodel.Occupancy.sm_occupancy > 0.0
    && occ.Costmodel.Occupancy.sm_occupancy <= 1.0);
  (* An oversized block cannot launch. *)
  let too_big = Etir.with_stile (gemm_etir ()) ~level:1 ~dim:0 256 in
  let too_big = Etir.with_stile too_big ~level:1 ~dim:1 256 in
  let occ2 = Costmodel.Occupancy.of_etir too_big ~hw in
  check_int "unlaunchable" 0 occ2.Costmodel.Occupancy.blocks_per_sm

(* ---------- Mem_check ---------- *)

let test_mem_check () =
  let e = gemm_etir () in
  check_bool "initial state legal" true (Costmodel.Mem_check.ok e ~hw);
  check_bool "initial state capacity-legal" true
    (Costmodel.Mem_check.ok_capacity e ~hw);
  (* Oversized register tile trips the per-thread capacity. *)
  let big = Etir.with_stile e ~level:0 ~dim:0 256 in
  let big = Etir.with_stile big ~level:0 ~dim:1 256 in
  check_bool "register overflow flagged" false
    (Costmodel.Mem_check.ok_capacity big ~hw);
  (* Launch-only violations pass the capacity check but fail the full one. *)
  let wide = Etir.with_stile e ~level:1 ~dim:0 256 in
  let wide = Etir.with_stile wide ~level:1 ~dim:1 256 in
  check_bool "launch violation passes capacity check" true
    (Costmodel.Mem_check.ok_capacity wide ~hw);
  check_bool "launch violation fails full check" false
    (Costmodel.Mem_check.ok wide ~hw)

(* Each violation kind, rendered: the message must name the level (or the
   launch limit) and both byte counts. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let violation_of ~level ~what etir =
  match
    List.find_opt
      (fun v ->
        v.Costmodel.Mem_check.level = level
        && v.Costmodel.Mem_check.what = what)
      (Costmodel.Mem_check.check etir ~hw)
  with
  | Some v -> v
  | None -> Alcotest.failf "no %s violation at level %d" what level

let assert_renders v ~names_level =
  let open Costmodel.Mem_check in
  let msg = Fmt.str "%a" pp_violation v in
  check_bool (Fmt.str "message %S names the level" msg) true
    (contains msg names_level);
  check_bool "message names the required count" true
    (contains msg (string_of_int v.required_bytes));
  check_bool "message names the capacity" true
    (contains msg (string_of_int v.capacity_bytes))

let test_pp_violation_register_capacity () =
  (* 16x16 accumulator alone exceeds the 255-register thread slice. *)
  let e = Etir.with_stile (gemm_etir ()) ~level:0 ~dim:0 16 in
  let e = Etir.with_stile e ~level:0 ~dim:1 16 in
  let v = violation_of ~level:0 ~what:"per-thread registers" e in
  assert_renders v ~names_level:"level 0"

let test_pp_violation_smem_capacity () =
  (* 256x256 block with a 64-wide reduce chunk stages 128 KiB > 100 KiB. *)
  let e = Etir.with_stile (gemm_etir ()) ~level:1 ~dim:0 256 in
  let e = Etir.with_stile e ~level:1 ~dim:1 256 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 64 in
  let v = violation_of ~level:1 ~what:"shared memory per block" e in
  assert_renders v ~names_level:"level 1";
  check_int "required is the staged footprint"
    (Costmodel.Footprint.bytes_at e ~level:1)
    v.Costmodel.Mem_check.required_bytes

let test_pp_violation_outer_cache () =
  (* A full 4096^3 GEMM wave tile (192 MiB) cannot fit the 72 MiB L2. *)
  let e = gemm_etir ~m:4096 ~n:4096 ~k:4096 () in
  let e = Etir.with_stile e ~level:2 ~dim:0 4096 in
  let e = Etir.with_stile e ~level:2 ~dim:1 4096 in
  let e = Etir.with_rtile e ~level:2 ~dim:0 4096 in
  let v = violation_of ~level:2 ~what:"l2" e in
  assert_renders v ~names_level:"level 2"

let test_pp_violation_launch_threads () =
  (* 256x256 block of 1x1 threads asks for 65536 threads per block. *)
  let e = Etir.with_stile (gemm_etir ()) ~level:1 ~dim:0 256 in
  let e = Etir.with_stile e ~level:1 ~dim:1 256 in
  let v = violation_of ~level:(-1) ~what:"threads per block" e in
  assert_renders v ~names_level:"launch limit";
  check_int "required is the thread count" 65536
    v.Costmodel.Mem_check.required_bytes

let test_pp_violation_launch_register_file () =
  (* 1024 threads x 320 B of registers exceed the 256 KiB SM file while
     each thread and the launch shape stay individually legal. *)
  let e = Etir.with_stile (gemm_etir ()) ~level:1 ~dim:0 256 in
  let e = Etir.with_stile e ~level:1 ~dim:1 256 in
  let e = Etir.with_stile e ~level:0 ~dim:0 8 in
  let e = Etir.with_stile e ~level:0 ~dim:1 8 in
  let v = violation_of ~level:(-1) ~what:"register file per block" e in
  assert_renders v ~names_level:"launch limit"

(* ---------- Model ---------- *)

let test_model_sanity () =
  let e = configured () in
  let m = Costmodel.Model.evaluate ~hw e in
  let open Costmodel.Metrics in
  check_bool "time positive" true (m.exec_time_s > 0.0);
  check_bool "rates within [0,1]" true
    (m.compute_throughput >= 0.0 && m.compute_throughput <= 1.0
    && m.sm_occupancy >= 0.0 && m.sm_occupancy <= 1.0
    && m.mem_busy >= 0.0 && m.mem_busy <= 1.0
    && m.l2_hit_rate >= 0.0 && m.l2_hit_rate <= 1.0);
  check_bool "conflicts >= 1" true (m.bank_conflict_factor >= 1.0)

let test_model_infeasible_sentinel () =
  let e = gemm_etir () in
  let too_big = Etir.with_stile e ~level:1 ~dim:0 256 in
  let too_big = Etir.with_stile too_big ~level:1 ~dim:1 256 in
  let m = Costmodel.Model.evaluate ~hw too_big in
  Alcotest.(check (float 1.0))
    "sentinel time" Costmodel.Model.infeasible_time_s
    m.Costmodel.Metrics.exec_time_s

let test_model_prefers_tuned () =
  (* A reasonable schedule must beat the unscheduled one. *)
  let naive = Costmodel.Model.score ~hw (gemm_etir ()) in
  let tuned = Costmodel.Model.score ~hw (configured ()) in
  check_bool "tuned beats naive" true (tuned > naive)

let test_model_ablation_knobs () =
  let e = configured () in
  let base = Costmodel.Model.evaluate ~hw e in
  let no_conflicts =
    Costmodel.Model.evaluate
      ~knobs:{ Costmodel.Model.default_knobs with model_conflicts = false }
      ~hw e
  in
  check_bool "conflict-free not slower" true
    (no_conflicts.Costmodel.Metrics.exec_time_s
    <= base.Costmodel.Metrics.exec_time_s +. 1e-12)

let test_polish_improves () =
  let e = gemm_etir () in
  let before = Costmodel.Model.score ~hw e in
  let _, metrics, evals = Costmodel.Polish.greedy ~budget:16 ~hw e in
  check_bool "polish never degrades" true
    (Costmodel.Metrics.score metrics >= before);
  check_bool "polish evaluated candidates" true (evals > 0)

(* Passing the start metrics skips the leader's duplicate evaluation but
   must land on the same local optimum. *)
let test_polish_metrics_passthrough () =
  let e = gemm_etir () in
  let metrics = Costmodel.Model.evaluate ~hw e in
  let e1, m1, evals1 = Costmodel.Polish.greedy ~budget:16 ~hw e in
  let e2, m2, evals2 = Costmodel.Polish.greedy ~budget:16 ~metrics ~hw e in
  check_bool "same refined state" true (Sched.Etir.equal e1 e2);
  check_bool "same metrics" true (m1 = m2);
  check_bool "one fewer evaluation" true (evals2 = evals1 - 1)

(* The tentpole invariant: deriving a state's components incrementally
   along any chain of construction edges is bit-for-bit what a from-scratch
   analysis produces — same component record, same metrics, and the walked
   state keeps its identity (fingerprint) no matter which path built it. *)
let prop_incremental_equals_full =
  QCheck.Test.make ~count:200 ~name:"incremental components = full rebuild"
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let m, n, k =
        match seed mod 4 with
        | 0 -> (256, 256, 256)
        | 1 -> (512, 128, 64)
        | 2 -> (4096, 1, 512)
        | _ -> (48, 96, 192)
      in
      let e = ref (gemm_etir ~m ~n ~k ()) in
      let comps = ref (Costmodel.Delta.of_etir ~hw !e) in
      let ok = ref true in
      for _ = 1 to 20 do
        match Action.successors !e with
        | [] -> ()
        | succs ->
          let action, next = Rng.choice rng succs in
          let incr_comps =
            Costmodel.Delta.child ~hw ~before:!e ~parent:!comps ~action next
          in
          let full_comps = Costmodel.Delta.of_etir ~hw next in
          if incr_comps <> full_comps then ok := false;
          if
            Costmodel.Model.evaluate_with ~hw next incr_comps
            <> Costmodel.Model.evaluate ~hw next
          then ok := false;
          (* Fingerprint agreement: the chained state and a freshly rebuilt
             copy of the same edge are indistinguishable to dedupe. *)
          (match List.find_opt (fun (a, _) -> a = action) (Action.successors !e) with
          | Some (_, rebuilt) ->
            if Etir.fingerprint next <> Etir.fingerprint rebuilt then
              ok := false
          | None -> ok := false);
          e := next;
          comps := incr_comps
      done;
      !ok)

(* The build counters must reflect which path ran: a full build bumps
   [st_full_builds], an edge derivation bumps [st_incremental_builds], and
   disabling the feature routes [child] through the full path. *)
let test_delta_stats_counters () =
  let open Costmodel.Delta in
  let e = gemm_etir () in
  reset_stats ();
  let comps = of_etir ~hw e in
  check_int "one full build" 1 (stats ()).st_full_builds;
  (match Action.successors e with
  | [] -> Alcotest.fail "seed state has no successors"
  | (action, next) :: _ ->
    ignore (child ~hw ~before:e ~parent:comps ~action next);
    let s = stats () in
    check_int "one incremental build" 1 s.st_incremental_builds;
    check_bool "level counters moved" true
      (s.st_levels_recomputed + s.st_levels_reused > 0);
    set_enabled false;
    Fun.protect
      ~finally:(fun () -> set_enabled true)
      (fun () ->
        ignore (child ~hw ~before:e ~parent:comps ~action next);
        check_int "disabled child counts as full build" 2
          (stats ()).st_full_builds))

let prop_model_deterministic =
  QCheck.Test.make ~count:100 ~name:"model evaluation is deterministic"
    QCheck.(make Gen.(int_range 0 1000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 15 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      let a = Costmodel.Model.evaluate ~hw !e in
      let b = Costmodel.Model.evaluate ~hw !e in
      a = b)

let () =
  Alcotest.run "costmodel"
    [ ("footprint",
       [ Alcotest.test_case "gemm slices" `Quick test_footprint_gemm;
         Alcotest.test_case "conv halo" `Quick test_footprint_conv_halo;
         QCheck_alcotest.to_alcotest prop_footprint_monotone ]);
      ("traffic",
       [ Alcotest.test_case "gemm formula" `Quick test_traffic_gemm_formula;
         Alcotest.test_case "compulsory floor" `Quick
           test_traffic_compulsory_floor;
         QCheck_alcotest.to_alcotest prop_traffic_positive ]);
      ("conflict", [ Alcotest.test_case "strides" `Quick test_conflict_strides ]);
      ("occupancy", [ Alcotest.test_case "limits" `Quick test_occupancy_limits ]);
      ("mem_check",
       [ Alcotest.test_case "categories" `Quick test_mem_check;
         Alcotest.test_case "pp register capacity" `Quick
           test_pp_violation_register_capacity;
         Alcotest.test_case "pp smem capacity" `Quick
           test_pp_violation_smem_capacity;
         Alcotest.test_case "pp outer cache" `Quick test_pp_violation_outer_cache;
         Alcotest.test_case "pp launch threads" `Quick
           test_pp_violation_launch_threads;
         Alcotest.test_case "pp launch register file" `Quick
           test_pp_violation_launch_register_file ]);
      ("model",
       [ Alcotest.test_case "sanity" `Quick test_model_sanity;
         Alcotest.test_case "infeasible sentinel" `Quick
           test_model_infeasible_sentinel;
         Alcotest.test_case "prefers tuned schedules" `Quick
           test_model_prefers_tuned;
         Alcotest.test_case "ablation knobs" `Quick test_model_ablation_knobs;
         Alcotest.test_case "polish improves" `Quick test_polish_improves;
         Alcotest.test_case "polish metrics passthrough" `Quick
           test_polish_metrics_passthrough;
         QCheck_alcotest.to_alcotest prop_model_deterministic ]);
      ("delta",
       [ Alcotest.test_case "build counters" `Quick test_delta_stats_counters;
         QCheck_alcotest.to_alcotest prop_incremental_equals_full ]) ]
