(* Public entry point of Gensor: run several independent Markov construction
   chains, pool their sampled states, and return the best configuration under
   the analytical performance model.

   The per-step guidance uses only the Eq. 1-3 benefit formulas; the full
   pipeline model is evaluated once per *sampled* state at the very end,
   mirroring the paper's "select the optimization path that promises the
   highest expected efficiency without repeatedly iterating code generation
   and profiling". *)

open Sched

type config = {
  seed : int;
  restarts : int;            (* independent chains *)
  anneal : Anneal.config;
  knobs : Costmodel.Model.knobs;
  prune_dominated : bool;
      (* drop pooled candidates strictly dominated by a sibling before the
         final full-model evaluation *)
}

let default_config = {
  seed = 42;
  restarts = 12;
  anneal = Anneal.default_config;
  knobs = Costmodel.Model.default_knobs;
  prune_dominated = true;
}

(* Table VI ablation variants. *)
let with_mode config f =
  { config with
    anneal =
      { config.anneal with Anneal.mode = f config.anneal.Anneal.mode } }

let without_vthread config =
  with_mode config (fun mode -> { mode with Policy.vthread_enabled = false })

let tree_only config =
  with_mode config (fun mode -> { mode with Policy.tree_mode = true })

type result = {
  etir : Etir.t;
  metrics : Costmodel.Metrics.t;
  states_explored : int;      (* policy steps across all chains *)
  candidates_evaluated : int; (* states scored by the full model at the end *)
  candidates_pruned : int;    (* pooled states dropped by dominance pruning *)
  wall_time_s : float;
}

(* Budget the chain by the work it has to do: roughly one doubling per
   dimension per level, padded for stochastic detours.  The cache sigmoid's
   midpoint lands at ~70% of a level's share so each level converges before
   its successor starts. *)
let sized_anneal_config base compute ~levels =
  let open Tensor_lang in
  let log2 n = int_of_float (ceil (Float.log2 (float_of_int (Int.max 2 n)))) in
  let doublings =
    List.fold_left (fun acc ax -> acc + log2 (Axis.extent ax)) 0 (Compute.axes compute)
  in
  let per_level = Int.max 25 (doublings * 8 / 5) in
  let iterations = (levels + 1) * per_level in
  (* The configured midpoint acts as a pace multiplier relative to the
     default: halving it makes every level cache twice as eagerly. *)
  let pace =
    base.Anneal.mode.Policy.cache_midpoint
    /. Policy.graph_mode.Policy.cache_midpoint
  in
  { Anneal.t0 = Float.pow 2.0 (float_of_int iterations /. 2.0);
    threshold = Float.pow 2.0 (-.float_of_int iterations /. 2.0);
    mode =
      { base.Anneal.mode with
        Policy.cache_midpoint = 0.7 *. pace *. float_of_int per_level } }

(* Dominance pruning of a pooled frontier (DESIGN.md §10): a candidate
   pointwise no better than a sibling cannot out-score it under the
   monotone aggregation, so it is dropped before the full-model pass.  A
   state is kept unless *some* sibling strictly dominates it, so the kept
   set does not depend on candidate order; survivors keep input order.

   Skyline sweep instead of the naive all-pairs scan.  Components are
   lower-better, so a dominator's component sum is strictly smaller than
   its victim's; processing in ascending-sum order guarantees every
   candidate's dominators are classified before it, and by transitivity
   being dominated at all implies being dominated by a *maximal* element —
   so each candidate only needs checking against the non-dominated set
   built so far.  The kept set is exactly the all-pairs one; only the
   comparison count changes.  All vectors live in one flat array and the
   skyline in an index array, so the sweep allocates nothing per
   candidate. *)
let prune_dominated ~hw candidates =
  match candidates with
  | [] -> []
  | (_, first) :: _ ->
    let arr = Array.of_list candidates in
    let n = Array.length arr in
    let width = Costmodel.Delta.dominance_width first in
    let caps =
      Costmodel.Delta.dominance_capacities ~hw
        ~num_levels:(Array.length first.Costmodel.Delta.traffic - 1)
    in
    let vecs = Array.make (n * width) 0.0 in
    let has_vec =
      Array.init n (fun i ->
          Costmodel.Delta.write_dominance ~caps (snd arr.(i)) vecs
            ~off:(i * width))
    in
    (* Launch-infeasible leftovers carry no vector: sorted last, never
       dominated, never dominating. *)
    let sums =
      Array.init n (fun i ->
          let sum = ref 0.0 in
          if has_vec.(i) then
            for k = i * width to ((i + 1) * width) - 1 do
              sum := !sum +. vecs.(k)
            done;
          !sum)
    in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match (has_vec.(a), has_vec.(b)) with
        | true, true -> Float.compare sums.(a) sums.(b)
        | true, false -> -1
        | false, true -> 1
        | false, false -> Int.compare a b)
      order;
    let kept = Array.make n true in
    let skyline = Array.make n 0 and skyline_len = ref 0 in
    for o = 0 to n - 1 do
      let i = order.(o) in
      if has_vec.(i) then begin
        (* Newest skyline member first, the order the list-based sweep
           had: oldest first took about twice as long on compile-cold's
           pools. *)
        let dominated = ref false and s = ref (!skyline_len - 1) in
        while (not !dominated) && !s >= 0 do
          dominated :=
            Costmodel.Delta.dominates_in vecs ~a_off:(skyline.(!s) * width)
              vecs ~b_off:(i * width) ~width;
          decr s
        done;
        if !dominated then kept.(i) <- false
        else begin
          skyline.(!skyline_len) <- i;
          incr skyline_len
        end
      end
    done;
    let survivors = ref [] in
    for i = n - 1 downto 0 do
      if kept.(i) then survivors := arr.(i) :: !survivors
    done;
    !survivors

(* [warm_start] seeds construction with an existing schedule retargeted at
   the new shape (the paper's ongoing-work direction: real-time
   re-optimisation of dynamic networks).  Warm chains run a shortened
   anneal — they refine instead of rebuilding. *)
(* Unified-registry counters: per-run numbers stay in [result]; these
   accumulate across runs so traces and bench arms read construction
   totals from the same place as every other layer (DESIGN.md section 11). *)
let c_states_explored = Trace.Counter.make "optimizer.states_explored"
let c_candidates_evaluated = Trace.Counter.make "optimizer.candidates_evaluated"
let c_candidates_pruned = Trace.Counter.make "optimizer.candidates_pruned"
let c_restarts = Trace.Counter.make "optimizer.restarts"

let optimize ?(config = default_config) ?warm_start ~hw compute =
  Trace.with_span ~name:"optimizer.optimize"
    ~args:
      [ ("compute", Tensor_lang.Compute.name compute);
        ("warm", if warm_start = None then "false" else "true") ]
  @@ fun () ->
  let start = Unix.gettimeofday () in
  let levels = Hardware.Gpu_spec.schedulable_cache_levels hw in
  let initial =
    match warm_start with
    | None -> Etir.create ~num_levels:levels compute
    | Some seed_etir -> Etir.with_cur_level (Etir.retarget seed_etir compute) 0
  in
  let rng = Rng.create ~seed:config.seed in
  let anneal_config =
    let sized = sized_anneal_config config.anneal compute ~levels in
    match warm_start with
    | None -> sized
    | Some _ ->
      (* A quarter of the cold budget: the seed is already deep in the
         graph; chains only need local refinement. *)
      { sized with
        Anneal.t0 = Float.pow 2.0 (Float.log2 sized.Anneal.t0 /. 4.0);
        threshold =
          Float.pow 2.0 (Float.log2 sized.Anneal.threshold /. 4.0) }
  in
  (* Memory-bound operators have a flat optimisation landscape (any schedule
     saturating bandwidth is near-optimal), so fewer chains suffice. *)
  let restarts =
    let open Tensor_lang in
    let intensity =
      float_of_int (Compute.total_flops compute)
      /. float_of_int (Compute.input_bytes compute + Compute.output_bytes compute)
    in
    if intensity < 8.0 then Int.min 4 (Int.max 1 config.restarts)
    else Int.max 1 config.restarts
  in
  (* Chain RNG streams are split from the master up front, in chain order,
     before any chain runs: each chain's draws are a pure function of the
     seed and the restart count, so the schedule is deterministic. *)
  let chain_rngs =
    let rec split n acc =
      if n = 0 then List.rev acc else split (n - 1) (Rng.split rng :: acc)
    in
    split restarts []
  in
  let outcomes =
    Trace.with_span ~name:"optimizer.chains"
      ~args:[ ("restarts", string_of_int restarts) ]
      (fun () ->
        List.map
          (fun chain_rng ->
            Anneal.run ~hw ~rng:chain_rng ~config:anneal_config initial)
          chain_rngs)
  in
  let states_explored =
    List.fold_left (fun acc o -> acc + o.Anneal.steps) 0 outcomes
  in
  (* Pool and deduplicate every sampled state.  Deduplication is by
     evaluation fingerprint (collision-checked), so states differing only in
     the construction cursor — which evaluate identically — occupy one slot
     and are analysed once.  Insertion order over the (ordered) outcome list
     fixes the pool order deterministically.  Legality is NOT checked here:
     it falls out of the per-candidate component build below, one analysis
     per unique state instead of one per sampled state. *)
  let pool : (int64, Etir.t list) Hashtbl.t = Hashtbl.create 256 in
  let pool_order = ref [] in
  let consider ((etir, _) as entry) =
    let fp = Etir.fingerprint etir in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt pool fp) in
    if not (List.exists (Etir.eval_equal etir) bucket) then begin
      Hashtbl.replace pool fp (etir :: bucket);
      pool_order := entry :: !pool_order
    end
  in
  List.iter
    (fun outcome -> List.iter consider outcome.Anneal.top_results)
    outcomes;
  (* The component records travelled along the construction edges (and are
     bit-identical to a fresh [of_etir] build — the incremental invariant),
     so launchability, dominance pruning and the final scoring all start
     from ready-made analyses: no per-candidate rebuild.  Launchability is
     a property of the evaluation class, so filtering after deduplication
     keeps exactly the states the old filter-first pipeline kept, in the
     same order. *)
  let launchable =
    List.filter
      (fun (etir, comps) ->
        Costmodel.Mem_check.ok_fp etir ~hw
          ~footprints:comps.Costmodel.Delta.footprint)
      (List.rev !pool_order)
  in
  let candidates =
    match launchable with
    | [] -> [ (initial, Costmodel.Delta.of_etir ~hw initial) ]
    | states -> states
  in
  (* Dominance pruning of the pooled frontier; the surviving set — and
     hence the selected schedule — does not depend on candidate order. *)
  let candidates, candidates_pruned =
    if not config.prune_dominated then (candidates, 0)
    else
      Trace.with_span ~name:"optimizer.prune"
        ~args:[ ("candidates", string_of_int (List.length candidates)) ]
      @@ fun () ->
      let survivors = prune_dominated ~hw candidates in
      (survivors, List.length candidates - List.length survivors)
  in
  let scored =
    Trace.with_span ~name:"optimizer.score"
      ~args:[ ("candidates", string_of_int (List.length candidates)) ]
      (fun () ->
        List.map
          (fun (etir, comps) ->
            (etir,
             Costmodel.Model.evaluate_with ~knobs:config.knobs ~hw etir comps))
          candidates)
  in
  let evaluated = ref (List.length scored) in
  let ranked =
    (* Deterministic tie-break so equal-score states rank identically
       regardless of hash order.  Ties are common, so each candidate's
       signature is built at most once, the first time a tie needs it. *)
    List.map (fun (etir, m) -> (etir, m, lazy (Etir.signature etir))) scored
    |> List.sort (fun (_, a, sig_a) (_, b, sig_b) ->
           let c =
             Float.compare (Costmodel.Metrics.score b)
               (Costmodel.Metrics.score a)
           in
           if c <> 0 then c
           else String.compare (Lazy.force sig_a) (Lazy.force sig_b))
    |> List.map (fun (etir, m, _) -> (etir, m))
  in
  (* Local polish of the leading states: follow the model's gradient through
     the same action edges while it strictly improves.  This is part of the
     final selection ("the optimization path that promises the highest
     expected efficiency"), not of the profiling-free traversal; it mostly
     irons out seed variance.  The leaders' metrics are passed through so
     the polish does not re-evaluate states scored just above. *)
  let leaders = List.filteri (fun i _ -> i < 4) ranked in
  let polished3 =
    Trace.with_span ~name:"optimizer.polish"
      ~args:[ ("leaders", string_of_int (List.length leaders)) ]
      (fun () ->
        List.map
          (fun (etir, metrics) ->
            Costmodel.Polish.greedy ~knobs:config.knobs ~budget:32 ~metrics
              ~hw etir)
          leaders)
  in
  let polished =
    List.map
      (fun (etir, metrics, evals) ->
        evaluated := !evaluated + evals;
        (etir, metrics))
      polished3
  in
  let etir, metrics =
    match polished with
    | [] -> (initial, Costmodel.Model.evaluate ~knobs:config.knobs ~hw initial)
    | first :: rest ->
      List.fold_left
        (fun (be, bm) (e, m) ->
          if Costmodel.Metrics.score m > Costmodel.Metrics.score bm then (e, m)
          else (be, bm))
        first rest
  in
  Trace.Counter.add c_states_explored states_explored;
  Trace.Counter.add c_candidates_evaluated !evaluated;
  Trace.Counter.add c_candidates_pruned candidates_pruned;
  Trace.Counter.add c_restarts restarts;
  { etir; metrics;
    states_explored;
    candidates_evaluated = !evaluated;
    candidates_pruned;
    wall_time_s = Unix.gettimeofday () -. start }
