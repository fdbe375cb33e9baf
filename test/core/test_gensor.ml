open Sched

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gemm ?(m = 128) ?(n = 128) ?(k = 64) () =
  Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ())

(* ---------- Benefit ---------- *)

let test_benefit_grow_vs_shrink () =
  (* Growing a level-2 tile of a fresh GEMM reduces traffic: grow must beat
     shrink (which is illegal at size 1, so compare grow to 1.0). *)
  let e = Etir.create (gemm ()) in
  let action = Action.Tile { level = 2; dim = 0; dir = Action.Grow } in
  let next = Option.get (Action.apply e action) in
  let benefit = Gensor.Benefit.of_action ~hw ~before:e ~after:next action in
  check_bool "growth attractive from the origin" true (benefit > 1.0)

let test_benefit_memory_check_zeroes () =
  (* A transition into a capacity-violating state gets probability 0. *)
  let e = Etir.create (gemm ~m:4096 ~n:4096 ~k:4096 ()) in
  let e = Etir.with_stile e ~level:0 ~dim:0 64 in
  let e = Etir.with_stile e ~level:0 ~dim:1 2 in
  let action = Action.Tile { level = 0; dim = 0; dir = Action.Grow } in
  match Action.apply e action with
  | None -> Alcotest.fail "expected a legal grow"
  | Some next ->
    check_bool "target violates registers" false
      (Costmodel.Mem_check.ok_capacity next ~hw);
    Alcotest.(check (float 0.0))
      "benefit zeroed" 0.0
      (Gensor.Benefit.of_action ~hw ~before:e ~after:next action)

let test_benefit_vthread_eq3 () =
  (* Eq. 3 with x = 8 elems (32 B), W = 4 B: ceil(32/4)/ceil(32/(2*4)) = 2. *)
  let e = Etir.with_stile (Etir.create (gemm ())) ~level:0 ~dim:1 8 in
  let after = Etir.with_vthread e ~dim:1 2 in
  Alcotest.(check (float 1e-9))
    "vthread benefit" 2.0
    (Gensor.Benefit.vthread ~hw ~before:e ~after ~dim:1)

let test_benefit_caching_positive () =
  let e = Etir.create (gemm ()) in
  check_bool "cache benefit positive away from registers" true
    (Gensor.Benefit.caching ~hw e > 1.0);
  let at_regs = Etir.with_cur_level e 0 in
  Alcotest.(check (float 0.0))
    "no caching below registers" 0.0
    (Gensor.Benefit.caching ~hw at_regs)

(* ---------- Policy ---------- *)

let test_policy_distribution () =
  let e = Etir.create (gemm ()) in
  let choices =
    Gensor.Policy.transitions ~hw ~mode:Gensor.Policy.graph_mode ~iteration:0 e
  in
  check_bool "choices exist" true (choices <> []);
  let total =
    List.fold_left (fun acc c -> acc +. c.Gensor.Policy.probability) 0.0 choices
  in
  Alcotest.(check (float 1e-9))
    "probabilities fill 1 - stay" (1.0 -. Gensor.Policy.stay_probability) total;
  List.iter
    (fun c ->
      if c.Gensor.Policy.probability <= 0.0 then
        Alcotest.failf "non-positive probability for %s"
          (Action.to_string c.Gensor.Policy.action))
    choices

let test_policy_cache_multiplier_monotone () =
  let prev = ref 0.0 in
  for t = 0 to 100 do
    let m = Gensor.Policy.cache_multiplier ~iteration:t () in
    if m < !prev then Alcotest.failf "multiplier decreased at %d" t;
    prev := m
  done;
  check_bool "approaches 3" true (!prev > 2.9)

let test_policy_modes () =
  let e = Etir.with_stile (Etir.create (gemm ())) ~level:0 ~dim:0 8 in
  let has_vthread mode =
    List.exists
      (fun c ->
        match c.Gensor.Policy.action with
        | Action.Set_vthread _ -> true
        | Action.Tile _ | Action.Rtile _ | Action.Cache -> false)
      (Gensor.Policy.transitions ~hw ~mode ~iteration:0 e)
  in
  check_bool "graph mode offers vthreads" true
    (has_vthread Gensor.Policy.graph_mode);
  check_bool "ablation removes vthreads" false
    (has_vthread
       { Gensor.Policy.graph_mode with Gensor.Policy.vthread_enabled = false });
  let has_shrink mode =
    List.exists
      (fun c ->
        match c.Gensor.Policy.action with
        | Action.Tile { dir = Action.Shrink; _ }
        | Action.Rtile { dir = Action.Shrink; _ } ->
          true
        | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ | Action.Cache
          ->
          false)
      (Gensor.Policy.transitions ~hw ~mode ~iteration:0 e)
  in
  (* Shrink edges only appear from states with grown tiles. *)
  let grown = Etir.with_stile e ~level:2 ~dim:0 16 in
  ignore (has_shrink Gensor.Policy.graph_mode);
  check_bool "graph mode backtracks" true
    (List.exists
       (fun c ->
         match c.Gensor.Policy.action with
         | Action.Tile { dir = Action.Shrink; _ } -> true
         | _ -> false)
       (Gensor.Policy.transitions ~hw ~mode:Gensor.Policy.graph_mode
          ~iteration:0 grown));
  check_bool "tree mode cannot backtrack" false
    (List.exists
       (fun c ->
         match c.Gensor.Policy.action with
         | Action.Tile { dir = Action.Shrink; _ }
         | Action.Rtile { dir = Action.Shrink; _ } ->
           true
         | _ -> false)
       (Gensor.Policy.transitions ~hw
          ~mode:{ Gensor.Policy.graph_mode with Gensor.Policy.tree_mode = true }
          ~iteration:0 grown))

(* ---------- Anneal ---------- *)

let test_anneal_runs_to_threshold () =
  let rng = Rng.create ~seed:1 in
  let config =
    { Gensor.Anneal.default_config with
      Gensor.Anneal.t0 = Float.pow 2.0 20.0;
      threshold = Float.pow 2.0 (-20.0) }
  in
  let outcome = Gensor.Anneal.run ~hw ~rng ~config (Etir.create (gemm ())) in
  check_int "one step per halving" 40 outcome.Gensor.Anneal.steps;
  check_bool "some transitions happened" true
    (outcome.Gensor.Anneal.transitions_taken > 0);
  check_bool "top results include the final state" true
    (List.exists
       (fun (etir, _) -> Etir.equal outcome.Gensor.Anneal.final etir)
       outcome.Gensor.Anneal.top_results)

let test_anneal_deterministic () =
  let run seed =
    let rng = Rng.create ~seed in
    (Gensor.Anneal.run ~hw ~rng (Etir.create (gemm ()))).Gensor.Anneal.final
  in
  check_bool "same seed, same construction" true (Etir.equal (run 5) (run 5));
  ignore (run 6)

let test_append_probability_decreases () =
  let early = Gensor.Anneal.append_probability ~temperature:1e6 in
  let late = Gensor.Anneal.append_probability ~temperature:1e-9 in
  check_bool "append prob higher early" true (early > late)

(* ---------- Optimizer ---------- *)

let test_optimizer_result_legal () =
  let r = Gensor.Optimizer.optimize ~hw (gemm ()) in
  check_bool "result launchable" true
    (Costmodel.Mem_check.ok r.Gensor.Optimizer.etir ~hw);
  check_bool "improves on the unscheduled state" true
    (Costmodel.Metrics.score r.Gensor.Optimizer.metrics
    > Costmodel.Model.score ~hw (Etir.create (gemm ())));
  check_bool "work accounted" true (r.Gensor.Optimizer.states_explored > 0)

let test_optimizer_deterministic () =
  let a = Gensor.Optimizer.optimize ~hw (gemm ()) in
  let b = Gensor.Optimizer.optimize ~hw (gemm ()) in
  check_bool "same seed, same schedule" true
    (Etir.equal a.Gensor.Optimizer.etir b.Gensor.Optimizer.etir)

(* The parallel runtime's core invariant: the pool width must not leak into
   results.  jobs=1 takes the plain sequential path; jobs=4 fans chains,
   scoring and polish over worker domains — schedules, metrics and counters
   must match bit for bit. *)
let test_optimizer_jobs_invariant () =
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 }
  in
  let a = Gensor.Optimizer.optimize ~config ~jobs:1 ~hw (gemm ()) in
  let b = Gensor.Optimizer.optimize ~config ~jobs:4 ~hw (gemm ()) in
  check_bool "identical schedule" true
    (Etir.equal a.Gensor.Optimizer.etir b.Gensor.Optimizer.etir);
  check_bool "identical metrics" true
    (a.Gensor.Optimizer.metrics = b.Gensor.Optimizer.metrics);
  Alcotest.(check int)
    "identical exploration" a.Gensor.Optimizer.states_explored
    b.Gensor.Optimizer.states_explored;
  Alcotest.(check int)
    "identical candidate count" a.Gensor.Optimizer.candidates_evaluated
    b.Gensor.Optimizer.candidates_evaluated

(* The memo caches must be transparent: cached and uncached runs return the
   same result (keys are collision-checked exactly, so a hash collision can
   cost a recompute but never change a value). *)
let test_optimizer_memo_transparent () =
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 2 }
  in
  let was = Parallel.Memo.enabled () in
  Fun.protect
    ~finally:(fun () -> Parallel.Memo.set_enabled was)
    (fun () ->
      Parallel.Memo.set_enabled false;
      let off = Gensor.Optimizer.optimize ~config ~jobs:1 ~hw (gemm ()) in
      Parallel.Memo.set_enabled true;
      let on = Gensor.Optimizer.optimize ~config ~jobs:1 ~hw (gemm ()) in
      check_bool "identical schedule" true
        (Etir.equal off.Gensor.Optimizer.etir on.Gensor.Optimizer.etir);
      check_bool "identical metrics" true
        (off.Gensor.Optimizer.metrics = on.Gensor.Optimizer.metrics))

(* Eval-equivalent sampled states (same tiles, different construction
   cursor) must be deduplicated before final scoring. *)
let test_optimizer_unique_candidates () =
  let r = Gensor.Optimizer.optimize ~hw (gemm ()) in
  check_bool "candidates bounded by explored states" true
    (r.Gensor.Optimizer.candidates_evaluated > 0
    && r.Gensor.Optimizer.candidates_evaluated
       < r.Gensor.Optimizer.states_explored * 2)

let test_optimizer_ablations () =
  let full = Gensor.Optimizer.optimize ~hw (gemm ()) in
  let no_vt =
    Gensor.Optimizer.optimize
      ~config:(Gensor.Optimizer.without_vthread Gensor.Optimizer.default_config)
      ~hw (gemm ())
  in
  (* The ablated search space is a subset, modulo stochastic noise; the
     no-vthread result must itself use no vthreads. *)
  let uses_vthread etir =
    let any = ref false in
    for dim = 0 to Etir.num_spatial etir - 1 do
      if Etir.vthread etir ~dim > 1 then any := true
    done;
    !any
  in
  check_bool "ablation produced no vthreads" false
    (uses_vthread no_vt.Gensor.Optimizer.etir);
  ignore full

(* ---------- Graph & Markov analysis (paper §IV-D) ---------- *)

let tiny_compute = Ops.Op.compute (Ops.Matmul.gemm ~m:4 ~n:4 ~k:2 ())

let test_graph_explore () =
  let g = Gensor.Graph.explore ~max_states:500 (Etir.create tiny_compute) in
  check_bool "multiple states" true (Gensor.Graph.size g > 10);
  check_bool "edges recorded" true (Gensor.Graph.edges g <> []);
  check_bool "same-level states mutually reachable (irreducibility)" true
    (Gensor.Graph.same_level_mutually_reachable g);
  match Gensor.Graph.best ~hw g with
  | Some (_, metrics) ->
    check_bool "best state scores positively" true
      (Costmodel.Metrics.score metrics > 0.0)
  | None -> Alcotest.fail "no launchable state found"

let test_markov_chain_properties () =
  let g = Gensor.Graph.explore ~max_states:200 (Etir.create tiny_compute) in
  let chain = Gensor.Value_iter.build ~hw g in
  Array.iteri
    (fun i total ->
      if Float.abs (total -. 1.0) > 1e-9 then
        Alcotest.failf "row %d sums to %f" i total)
    (Gensor.Value_iter.row_sums chain);
  check_bool "self-loops exist (aperiodicity)" true
    (Gensor.Value_iter.has_self_loop chain);
  let dist, iters = Gensor.Value_iter.stationary chain in
  check_bool "power iteration converged" true (iters < 100_000);
  let mass = Array.fold_left ( +. ) 0.0 dist in
  Alcotest.(check (float 1e-6)) "stationary distribution sums to 1" 1.0 mass;
  check_bool "non-negative" true (Array.for_all (fun p -> p >= -1e-12) dist)

(* Dominance pruning must be invisible in the answer: exploring the FULL
   tiny graph (uncapped, so both runs see the same reachable set) with and
   without pruning yields the same best state and score, while actually
   pruning a meaningful share of the frontier.  [Graph.best] breaks exact
   score ties toward the smallest signature precisely so this holds when
   saturating model terms (e.g. the compulsory-traffic floor) make several
   states score identically. *)
let test_graph_prune_preserves_best () =
  let seed = Etir.create tiny_compute in
  let plain = Gensor.Graph.explore ~max_states:1_000_000 seed in
  let pruned = Gensor.Graph.explore ~max_states:1_000_000 ~prune_hw:hw seed in
  check_bool "pruning actually fired" true
    (Gensor.Graph.pruned_states pruned > 0);
  Alcotest.(check int)
    "plain explore prunes nothing" 0
    (Gensor.Graph.pruned_states plain);
  match (Gensor.Graph.best ~hw plain, Gensor.Graph.best ~hw pruned) with
  | Some (ep, mp), Some (eq, mq) ->
    Alcotest.(check string)
      "same best state" (Etir.signature ep) (Etir.signature eq);
    check_bool "same best score" true
      (Costmodel.Metrics.score mp = Costmodel.Metrics.score mq)
  | _ -> Alcotest.fail "a launchable best state exists in both runs"

(* Same invariant one layer up: the optimizer's pooled-frontier dominance
   sweep must not change the selected schedule, only the amount of
   full-model scoring work. *)
let test_optimizer_prune_transparent () =
  let cfg p =
    { Gensor.Optimizer.default_config with
      Gensor.Optimizer.restarts = 4;
      prune_dominated = p }
  in
  let on = Gensor.Optimizer.optimize ~config:(cfg true) ~jobs:1 ~hw (gemm ()) in
  let off =
    Gensor.Optimizer.optimize ~config:(cfg false) ~jobs:1 ~hw (gemm ())
  in
  check_bool "identical schedule" true
    (Etir.equal on.Gensor.Optimizer.etir off.Gensor.Optimizer.etir);
  check_bool "identical metrics" true
    (on.Gensor.Optimizer.metrics = off.Gensor.Optimizer.metrics);
  check_bool "pruning actually fired" true
    (on.Gensor.Optimizer.candidates_pruned > 0);
  Alcotest.(check int)
    "prune-off sweep reports zero" 0 off.Gensor.Optimizer.candidates_pruned;
  check_bool "pruning reduced scoring work" true
    (on.Gensor.Optimizer.candidates_evaluated
    < off.Gensor.Optimizer.candidates_evaluated)

(* Incremental component evaluation is an oracle-equivalence refactor: with
   it disabled (every edge re-analysed from scratch) the optimizer must
   select the same schedule with the same metrics. *)
let test_optimizer_incremental_transparent () =
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 }
  in
  let was = Costmodel.Delta.enabled () in
  let memo_was = Parallel.Memo.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Costmodel.Delta.set_enabled was;
      Parallel.Memo.set_enabled memo_was)
    (fun () ->
      (* Memoised transition lists carry components with them; disable the
         caches so the full-rebuild run actually exercises the full path. *)
      Parallel.Memo.set_enabled false;
      Costmodel.Delta.set_enabled true;
      let on = Gensor.Optimizer.optimize ~config ~jobs:1 ~hw (gemm ()) in
      Costmodel.Delta.set_enabled false;
      let off = Gensor.Optimizer.optimize ~config ~jobs:1 ~hw (gemm ()) in
      check_bool "identical schedule" true
        (Etir.equal on.Gensor.Optimizer.etir off.Gensor.Optimizer.etir);
      check_bool "identical metrics" true
        (on.Gensor.Optimizer.metrics = off.Gensor.Optimizer.metrics);
      Alcotest.(check int)
        "identical exploration" on.Gensor.Optimizer.states_explored
        off.Gensor.Optimizer.states_explored)

let test_value_iteration_converges () =
  let g = Gensor.Graph.explore ~max_states:150 (Etir.create tiny_compute) in
  let chain = Gensor.Value_iter.build ~hw g in
  let values, policy, iters = Gensor.Value_iter.value_iteration chain in
  check_bool "finite convergence (paper: ~100 iterations)" true (iters < 10_000);
  check_bool "values bounded" true
    (Array.for_all (fun v -> v >= 0.0 && v <= 1.0) values);
  check_bool "greedy policy total" true (Array.for_all (fun j -> j >= 0) policy)

let () =
  Alcotest.run "gensor"
    [ ("benefit",
       [ Alcotest.test_case "growth attractive" `Quick test_benefit_grow_vs_shrink;
         Alcotest.test_case "memory check zeroes" `Quick
           test_benefit_memory_check_zeroes;
         Alcotest.test_case "vthread Eq.3" `Quick test_benefit_vthread_eq3;
         Alcotest.test_case "caching Eq.2" `Quick test_benefit_caching_positive ]);
      ("policy",
       [ Alcotest.test_case "normalised distribution" `Quick
           test_policy_distribution;
         Alcotest.test_case "cache multiplier monotone" `Quick
           test_policy_cache_multiplier_monotone;
         Alcotest.test_case "ablation modes" `Quick test_policy_modes ]);
      ("anneal",
       [ Alcotest.test_case "runs to threshold" `Quick
           test_anneal_runs_to_threshold;
         Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
         Alcotest.test_case "append probability decays" `Quick
           test_append_probability_decreases ]);
      ("optimizer",
       [ Alcotest.test_case "legal result" `Quick test_optimizer_result_legal;
         Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
         Alcotest.test_case "jobs invariant" `Quick
           test_optimizer_jobs_invariant;
         Alcotest.test_case "memo transparent" `Quick
           test_optimizer_memo_transparent;
         Alcotest.test_case "prune transparent" `Quick
           test_optimizer_prune_transparent;
         Alcotest.test_case "incremental transparent" `Quick
           test_optimizer_incremental_transparent;
         Alcotest.test_case "unique candidates" `Quick
           test_optimizer_unique_candidates;
         Alcotest.test_case "ablations" `Quick test_optimizer_ablations ]);
      ("markov",
       [ Alcotest.test_case "graph exploration" `Quick test_graph_explore;
         Alcotest.test_case "prune preserves best" `Quick
           test_graph_prune_preserves_best;
         Alcotest.test_case "chain properties" `Quick
           test_markov_chain_properties;
         Alcotest.test_case "value iteration" `Quick
           test_value_iteration_converges ]) ]
