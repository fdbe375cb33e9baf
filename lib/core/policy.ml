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

let[@inline] allowed mode (action : Action.t) =
  match action with
  | Action.Set_vthread _ -> mode.vthread_enabled
  | Action.Tile { dir = Action.Shrink; _ }
  | Action.Rtile { dir = Action.Shrink; _ } ->
    not mode.tree_mode
  | Action.Tile { dir = Action.Grow; _ }
  | Action.Rtile { dir = Action.Grow; _ }
  | Action.Cache ->
    true

(* Per-chain scoring state.  A policy step scores every legal allowed edge
   of the state in [Action.candidates] order, keeping the positively
   weighted ones; nothing in the pass allocates per edge.  Candidate arrays
   depend only on the cursor level (the compute's axes are fixed along a
   chain), so each is built the first time its level is reached. *)
type workspace = {
  scratch : Costmodel.Delta.scratch;
  cands : Action.t array array;  (* per cursor level; [||] until first use *)
  actions : Action.t array;      (* this step's positively weighted edges *)
  benefits : float array;        (* their base benefits, same order *)
  mutable count : int;
}

let workspace etir =
  (* The cursor at the registers leaves every level adjustable: the most
     candidates any state of this compute has. *)
  let most =
    List.length (Action.candidates (Etir.with_cur_level etir 0))
  in
  { scratch = Costmodel.Delta.scratch etir;
    cands = Array.make (Etir.num_levels etir + 1) [||];
    actions = Array.make most Action.Cache;
    benefits = Array.make most 0.0;
    count = 0 }

(* The iteration-independent part of a state's transition distribution:
   every legal allowed edge's base benefit (Eq. 1-3), scored from the
   parent's own data by [Benefit.of_edge] — no successor is built.  Only
   the cache action's weight depends on the iteration (through the
   annealing multiplier), and the multiplier is strictly positive, so it is
   applied afterwards without changing which edges survive the positivity
   filter. *)
let score ws ~hw ~mode ~parent etir =
  let cur = Etir.cur_level etir in
  if Array.length ws.cands.(cur) = 0 then
    ws.cands.(cur) <- Array.of_list (Action.candidates etir);
  let cands = ws.cands.(cur) in
  let kept = ref 0 and scored = ref 0 in
  for i = 0 to Array.length cands - 1 do
    let action = cands.(i) in
    if allowed mode action then begin
      let target = Action.target etir action in
      if target >= 0 then begin
        incr scored;
        let benefit =
          Benefit.of_edge ~hw ws.scratch ~before:etir ~parent action target
        in
        if not (benefit <= 0.0) then begin
          ws.actions.(!kept) <- action;
          ws.benefits.(!kept) <- benefit;
          incr kept
        end
      end
    end
  done;
  Costmodel.Delta.count_edges_scored !scored;
  ws.count <- !kept

let parent_comps ?comps ~hw etir =
  match comps with Some c -> c | None -> Costmodel.Delta.of_etir ~hw etir

let base_benefits ?comps ~hw ~mode etir =
  let ws = workspace etir in
  score ws ~hw ~mode ~parent:(parent_comps ?comps ~hw etir) etir;
  List.init ws.count (fun i -> (ws.actions.(i), ws.benefits.(i)))

(* The successor behind a scored edge, with its components derived
   incrementally from the parent's: only the slices [action] invalidates
   are recomputed. *)
let build ~hw ~parent etir action =
  let next = Option.get (Action.apply etir action) in
  (next, Costmodel.Delta.child ~hw ~before:etir ~parent ~action next)

(* The cache action's weight at [iteration]: its base benefit scaled by the
   annealing multiplier; every other action keeps its base benefit. *)
let step_weight ~mode ~iteration action benefit =
  match action with
  | Action.Cache ->
    benefit *. cache_multiplier ~midpoint:mode.cache_midpoint ~iteration ()
  | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ -> benefit

(* All legal, positively-weighted transitions with normalised
   probabilities, every successor built.  The normalisation leaves room
   for [stay_probability].  This is the analysis-facing entry point (value
   iteration, tests). *)
let transitions ?comps ~hw ~mode ~iteration etir =
  let parent = parent_comps ?comps ~hw etir in
  let ws = workspace etir in
  score ws ~hw ~mode ~parent etir;
  let weighted =
    List.init ws.count (fun i ->
        let action = ws.actions.(i) in
        let next, next_comps = build ~hw ~parent etir action in
        (action, next, next_comps,
         step_weight ~mode ~iteration action ws.benefits.(i)))
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

(* [transitions] + [select] for the annealing hot loop: the same scoring
   pass, one weight array, and only the drawn successor is built.  Every
   float is produced by the same operations in the same order as the
   two-call path, and the roulette sees the same weight array, so the draw
   — and hence the whole chain — is bit-identical to
   [select rng (transitions ...)]. *)
let draw ws rng ?comps ~hw ~mode ~iteration etir =
  let parent = parent_comps ?comps ~hw etir in
  score ws ~hw ~mode ~parent etir;
  let n = ws.count in
  if n = 0 then None
  else begin
    let w = Array.make (n + 1) stay_probability in
    for i = 0 to n - 1 do
      w.(i) <- step_weight ~mode ~iteration ws.actions.(i) ws.benefits.(i)
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
        let action = ws.actions.(idx) in
        let next, next_comps = build ~hw ~parent etir action in
        Some { action; next; next_comps; probability = w.(idx) }
      end
      else None
    end
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
