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

(* ---------- Edge scoring ---------- *)

(* Every Table IV op and the distinct fused kernels of BERT-small and
   GPT-2: the computes the scorer meets in the figures and the benchmark. *)
let scoring_kernels =
  let fused g =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun n ->
        let op = n.Dnn.Graph.op in
        let key = Dnn.Model.distinct_key op in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (Ops.Op.compute op)
        end)
      (Dnn.Graph.nodes (Dnn.Fusion.fuse g).Dnn.Fusion.graph)
  in
  List.map
    (fun e -> Ops.Op.compute (e.Workloads.Table_iv.op ()))
    Workloads.Table_iv.all
  @ fused (Dnn.Transformer.bert_small_graph ())
  @ fused (Dnn.Transformer.gpt2_graph ())

let scoring_modes =
  [ Gensor.Policy.graph_mode;
    { Gensor.Policy.graph_mode with Gensor.Policy.vthread_enabled = false };
    { Gensor.Policy.graph_mode with Gensor.Policy.tree_mode = true } ]

(* Walks one chain per (kernel, mode) the way the annealing loop does —
   [Policy.draw] with a chain workspace, the carried component record and
   the per-level cache clock — and calls [check ~hw ~mode ~iteration rng
   etir comps] at every state before drawing from it.  The device
   alternates with the seed. *)
let walk_chains ~steps seed check =
  let hw =
    if seed mod 2 = 0 then hw else Hardware.Presets.orin_nano
  in
  List.for_all
    (fun compute ->
      List.for_all
        (fun mode ->
          let rng = Rng.create ~seed in
          let e0 = Etir.create compute in
          let ws = Gensor.Policy.workspace e0 in
          let rec go i e comps ~level_entry =
            i = steps
            ||
            let iteration = i - level_entry in
            check ~hw ~mode ~iteration rng e comps
            &&
            match Gensor.Policy.draw ws rng ~comps ~hw ~mode ~iteration e with
            | None -> go (i + 1) e comps ~level_entry
            | Some c ->
              let level_entry =
                match c.Gensor.Policy.action with
                | Action.Cache -> i + 1
                | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ ->
                  level_entry
              in
              go (i + 1) c.Gensor.Policy.next c.Gensor.Policy.next_comps
                ~level_entry
          in
          go 0 e0 (Costmodel.Delta.of_etir ~hw e0) ~level_entry:0)
        scoring_modes)
    scoring_kernels

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* The scorer's positive (action, benefit) sequence is the from-scratch
   oracle's, bit for bit: every legal allowed successor built in full, both
   sides analysed by [Delta.of_etir], fed through the same Eq. 1-3. *)
let prop_scorer_equals_oracle =
  QCheck.Test.make ~count:2 ~name:"edge scores = from-scratch benefits"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      walk_chains ~steps:150 seed (fun ~hw ~mode ~iteration:_ _ e comps ->
          let scored = Gensor.Policy.base_benefits ~comps ~hw ~mode e in
          let oracle =
            List.filter_map
              (fun (a, after) ->
                if not (Gensor.Policy.allowed mode a) then None
                else
                  let b = Gensor.Benefit.of_action ~hw ~before:e ~after a in
                  if b > 0.0 then Some (a, b) else None)
              (Action.successors e)
          in
          List.length scored = List.length oracle
          && List.for_all2
               (fun (a, b) (a', b') -> a = a' && same_float b b')
               scored oracle))

(* [draw] is [select (transitions ...)] with only the drawn successor built:
   given copies of one generator, both pick the same edge with the same
   probability and leave the generators in the same state, and the drawn
   successor's incrementally built record is the full rebuild's. *)
let prop_draw_equals_select =
  QCheck.Test.make ~count:2 ~name:"draw = select of transitions"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      walk_chains ~steps:150 seed (fun ~hw ~mode ~iteration rng e comps ->
          let ws = Gensor.Policy.workspace e in
          let r1 = Rng.copy rng and r2 = Rng.copy rng in
          let drawn = Gensor.Policy.draw ws r1 ~comps ~hw ~mode ~iteration e in
          let selected =
            Gensor.Policy.select r2
              (Gensor.Policy.transitions ~comps ~hw ~mode ~iteration e)
          in
          Rng.float r1 = Rng.float r2
          &&
          match (drawn, selected) with
          | None, None -> true
          | Some d, Some c ->
            d.Gensor.Policy.action = c.Gensor.Policy.action
            && same_float d.Gensor.Policy.probability
                 c.Gensor.Policy.probability
            && Etir.signature d.Gensor.Policy.next
               = Etir.signature c.Gensor.Policy.next
            && d.Gensor.Policy.next_comps
               = Costmodel.Delta.of_etir ~hw d.Gensor.Policy.next
          | Some _, None | None, Some _ -> false))

(* A policy step scores every legal allowed edge and builds one child at
   most: [delta.edges_scored] moves by the edge count in one step,
   [delta.incremental_builds] by the drawn edge only. *)
let test_draw_counters () =
  let e = Etir.create (gemm ()) in
  let mode = Gensor.Policy.graph_mode in
  let legal =
    List.length
      (List.filter
         (fun (a, _) -> Gensor.Policy.allowed mode a)
         (Action.successors e))
  in
  Costmodel.Delta.reset_stats ();
  let edges () =
    Option.value ~default:0 (Trace.Counter.find "delta.edges_scored")
  in
  let drawn =
    Gensor.Policy.draw (Gensor.Policy.workspace e) (Rng.create ~seed:3) ~hw
      ~mode ~iteration:0 e
  in
  check_int "every legal edge scored" legal (edges ());
  check_int "only the drawn child built"
    (if drawn = None then 0 else 1)
    (Costmodel.Delta.stats ()).Costmodel.Delta.st_incremental_builds

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
  let on = Gensor.Optimizer.optimize ~config:(cfg true) ~hw (gemm ()) in
  let off =
    Gensor.Optimizer.optimize ~config:(cfg false) ~hw (gemm ())
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

(* The optimizer's skyline sweep keeps exactly the naive all-pairs survivor
   set, in input order: a pooled candidate survives unless some other
   candidate's dominance vector strictly dominates its own, and a candidate
   without a vector (launch-infeasible) always survives.  The pools are the
   sampled states of several chains, as the optimizer pools them, for ops
   of different shapes. *)
let test_optimizer_prune_all_pairs () =
  List.iter
    (fun (name, compute) ->
      let levels = Hardware.Gpu_spec.schedulable_cache_levels hw in
      let initial = Etir.create ~num_levels:levels compute in
      let rng = Rng.create ~seed:5 in
      let pool =
        List.concat_map
          (fun _ ->
            (Gensor.Anneal.run ~hw ~rng:(Rng.split rng) initial)
              .Gensor.Anneal.top_results)
          (List.init 6 Fun.id)
      in
      let vecs =
        Array.of_list
          (List.map (fun (_, c) -> Costmodel.Delta.dominance_vector ~hw c) pool)
      in
      let all_pairs =
        List.filteri
          (fun i _ ->
            match vecs.(i) with
            | None -> true
            | Some v ->
              not
                (Array.exists
                   (function
                     | Some o -> Costmodel.Delta.dominates o v | None -> false)
                   vecs))
          pool
      in
      let swept = Gensor.Optimizer.prune_dominated ~hw pool in
      check_int (name ^ ": survivor count") (List.length all_pairs)
        (List.length swept);
      check_bool (name ^ ": same survivors in input order") true
        (List.for_all2 ( == ) all_pairs swept);
      check_bool (name ^ ": the sweep pruned something") true
        (List.length swept < List.length pool))
    [ ("gemm", gemm ());
      ("gemv", Ops.Op.compute (Ops.Matmul.gemv ~m:8192 ~n:1024 ()));
      ("conv",
       Ops.Op.compute
         (Ops.Conv.conv2d ~batch:8 ~in_channels:32 ~out_channels:32 ~height:28
            ~width:28 ~kernel:3 ~stride:1 ()));
      ("bmm",
       Ops.Op.compute
         (Ops.Matmul.batch_matmul ~batch:12 ~m:128 ~n:128 ~k:64 ())) ]

(* Incremental component evaluation is an oracle-equivalence refactor: with
   it disabled (every edge re-analysed from scratch) the optimizer must
   select the same schedule with the same metrics.  Inputs: a small GEMM
   with 4 restarts, and Table IV M1 under the default config. *)
let test_optimizer_incremental_transparent () =
  let m1 =
    match Workloads.Table_iv.find "M1" with
    | Some e -> Ops.Op.compute (e.Workloads.Table_iv.op ())
    | None -> Alcotest.fail "Table IV has no M1"
  in
  let cases =
    [ ( { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 },
        gemm () );
      (Gensor.Optimizer.default_config, m1) ]
  in
  let was = Costmodel.Delta.enabled () in
  Fun.protect
    ~finally:(fun () -> Costmodel.Delta.set_enabled was)
    (fun () ->
      List.iter
        (fun (config, compute) ->
          Costmodel.Delta.set_enabled true;
          let on = Gensor.Optimizer.optimize ~config ~hw compute in
          Costmodel.Delta.set_enabled false;
          let off = Gensor.Optimizer.optimize ~config ~hw compute in
          check_bool "identical schedule" true
            (Etir.equal on.Gensor.Optimizer.etir off.Gensor.Optimizer.etir);
          check_bool "identical metrics" true
            (on.Gensor.Optimizer.metrics = off.Gensor.Optimizer.metrics);
          Alcotest.(check int)
            "identical exploration" on.Gensor.Optimizer.states_explored
            off.Gensor.Optimizer.states_explored)
        cases)

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
         Alcotest.test_case "ablation modes" `Quick test_policy_modes;
         Alcotest.test_case "draw counters" `Quick test_draw_counters;
         QCheck_alcotest.to_alcotest prop_scorer_equals_oracle;
         QCheck_alcotest.to_alcotest prop_draw_equals_select ]);
      ("anneal",
       [ Alcotest.test_case "runs to threshold" `Quick
           test_anneal_runs_to_threshold;
         Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
         Alcotest.test_case "append probability decays" `Quick
           test_append_probability_decreases ]);
      ("optimizer",
       [ Alcotest.test_case "legal result" `Quick test_optimizer_result_legal;
         Alcotest.test_case "deterministic" `Quick test_optimizer_deterministic;
         Alcotest.test_case "prune transparent" `Quick
           test_optimizer_prune_transparent;
         Alcotest.test_case "prune keeps all-pairs survivors" `Quick
           test_optimizer_prune_all_pairs;
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
