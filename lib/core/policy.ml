(* The Markov transition policy — paper Algorithm 2.

   For the current state, every candidate (action, dimension) pair is scored
   with its analytical benefit, the cache action's score is modulated by the
   annealing multiplier, scores are normalised into a probability
   distribution, and one transition is drawn by roulette selection.

   A small stay probability implements Algorithm 2's fall-through (the loop
   can return no action, leaving the state unchanged).  Besides matching the
   pseudo-code, the induced self-loop is what makes the chain aperiodic: all
   tiling/vthread edges flip a lattice parity, so without self-loops the
   same-level subgraph would be bipartite. *)

open Sched

type choice = {
  action : Action.t;
  next : Etir.t;
  next_comps : Costmodel.Delta.components;
      (* the successor's cost-model components, derived incrementally along
         the edge — the annealing loop carries them so the next policy step
         starts from a ready-made before-state analysis *)
  probability : float;
}

let stay_probability = 0.02

(* The paper's annealing multiplier on the cache action,
   3 / (1 + e^{-(ln 5 / 10)(t - midpoint)}): the cache switch becomes up to
   3x more likely as construction progresses, which forces convergence to
   the next memory level.  [t] counts the steps spent at the *current* level
   — the clock restarts when a cache switch fires, so every level gets its
   own ramp (with a global clock the second switch would fire immediately
   and skip the shared-memory level entirely).
   The paper's midpoint of 10 steps is calibrated to its own benefit scale;
   ours is configurable (default 35) so that large-extent operators get
   enough growth steps per level before the switch becomes likely. *)
let cache_multiplier ?(midpoint = 35.0) ~iteration () =
  let t = float_of_int iteration in
  3.0 /. (1.0 +. exp (-.(log 5.0 /. 10.0) *. (t -. midpoint)))

type mode = {
  vthread_enabled : bool;  (* Table VI ablation: allow Set_vthread actions *)
  tree_mode : bool;
      (* degenerate to a tree: no inverse tiling, i.e. no backtracking *)
  cache_midpoint : float;  (* annealing-sigmoid midpoint, steps per level *)
}

let graph_mode =
  { vthread_enabled = true; tree_mode = false; cache_midpoint = 35.0 }

let allowed mode (action : Action.t) =
  match action with
  | Action.Set_vthread _ -> mode.vthread_enabled
  | Action.Tile { dir = Action.Shrink; _ }
  | Action.Rtile { dir = Action.Shrink; _ } ->
    not mode.tree_mode
  | Action.Tile { dir = Action.Grow; _ }
  | Action.Rtile { dir = Action.Grow; _ }
  | Action.Cache ->
    true

(* The iteration-independent part of a state's transition distribution:
   every legal successor with its positive base benefit and its
   incrementally derived components.  This is the expensive part of a
   policy step: successor generation, then per successor one incremental
   component build ([Delta.child], dominated by the footprint plan's
   evaluation at the refilled levels) and one benefit.  Only the
   cache action's weight depends on the iteration (through the annealing
   multiplier), and the multiplier is strictly positive, so it is applied
   afterwards without changing which transitions survive the positivity
   filter. *)
let base_weighted ?comps ~hw ~mode etir =
  (* One hoisted analysis context for the whole successor set — the
     before-state traffic/footprint/occupancy is identical across them.
     When the caller carries the before state's components (the anneal
     loop threads them edge by edge), the context is a set of field reads;
     otherwise they are rebuilt once here. *)
  let before_comps =
    match comps with
    | Some c -> c
    | None -> Costmodel.Delta.of_etir ~hw etir
  in
  let ctx = Benefit.context_of ~hw etir before_comps in
  let exact (action, next) =
    (* Components travel along the edge: only the slices [action]
       invalidates are recomputed for the successor. *)
    let next_comps =
      Costmodel.Delta.child ~hw ~before:etir ~parent:before_comps ~action next
    in
    let benefit =
      Benefit.of_action_comps ctx ~after:next ~after_comps:next_comps action
    in
    if benefit <= 0.0 then None else Some (action, next, next_comps, benefit)
  in
  List.filter_map
    (fun ((action, _) as edge) ->
      if allowed mode action then exact edge else None)
    (Action.successors etir)

(* The cache action's weight at [iteration]: its base benefit scaled by the
   annealing multiplier; every other action keeps its base benefit. *)
let step_weight ~mode ~iteration action benefit =
  match action with
  | Action.Cache ->
    benefit *. cache_multiplier ~midpoint:mode.cache_midpoint ~iteration ()
  | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ -> benefit

(* All legal, positively-weighted transitions with normalised
   probabilities.  The normalisation leaves room for [stay_probability].
   This is the analysis-facing entry point (value iteration, tests). *)
let transitions ?comps ~hw ~mode ~iteration etir =
  let weighted =
    List.map
      (fun (action, next, next_comps, benefit) ->
        (action, next, next_comps, step_weight ~mode ~iteration action benefit))
      (base_weighted ?comps ~hw ~mode etir)
  in
  let total =
    List.fold_left (fun acc (_, _, _, b) -> acc +. b) 0.0 weighted
  in
  if total <= 0.0 then []
  else
    let scale = (1.0 -. stay_probability) /. total in
    List.map
      (fun (action, next, next_comps, benefit) ->
        { action; next; next_comps; probability = benefit *. scale })
      weighted

(* Fused [transitions] + [select] for the annealing hot loop: one array of
   weights instead of three intermediate lists, and only the drawn choice
   record is materialised.  Every float is produced by the same operations
   in the same order as the two-call path, and the roulette sees the same
   weight array, so the draw — and hence the whole chain — is bit-identical
   to [select rng (transitions ...)]. *)
let draw rng ?comps ~hw ~mode ~iteration etir =
  match base_weighted ?comps ~hw ~mode etir with
  | [] -> None
  | base ->
    let items = Array.of_list base in
    let n = Array.length items in
    let w = Array.make (n + 1) stay_probability in
    for i = 0 to n - 1 do
      let action, _, _, benefit = items.(i) in
      w.(i) <- step_weight ~mode ~iteration action benefit
    done;
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. w.(i)
    done;
    if !total <= 0.0 then None
    else begin
      let scale = (1.0 -. stay_probability) /. !total in
      for i = 0 to n - 1 do
        w.(i) <- w.(i) *. scale
      done;
      let idx = Rng.roulette rng w in
      if idx < n then begin
        let action, next, next_comps, _ = items.(idx) in
        Some { action; next; next_comps; probability = w.(idx) }
      end
      else None
    end

(* Roulette selection over the transition distribution; [None] means the
   chain stays in place this step. *)
let select rng choices =
  match choices with
  | [] -> None
  | _ ->
    let weights =
      Array.of_list (List.map (fun c -> c.probability) choices @ [ stay_probability ])
    in
    let idx = Rng.roulette rng weights in
    if idx = List.length choices then None else Some (List.nth choices idx)
