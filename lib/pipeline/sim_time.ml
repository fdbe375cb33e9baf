(* Simulated optimisation-time accounting.

   Compilation-time comparisons (paper Figs. 8, 10, 12) hinge on what each
   step costs in the real systems: construction methods pay a cheap analysis
   step (Python-side graph/tree work), search methods pay a full
   codegen + compile + on-device measurement per trial.  Wall-clock time of
   this OCaml process reflects none of that, so every method reports both
   its real wall time and a simulated time computed from these constants. *)

(* One analysis step of Gensor: a Markov policy evaluation over all candidate
   actions (stochastic selection and probability calculations — the paper's
   explanation for Gensor being an order of magnitude slower than Roller). *)
let analysis_step_s = 2e-3

(* One Roller candidate scoring step: a single deterministic tree-traversal
   comparison, much cheaper than a full policy evaluation. *)
let tree_step_s = 1e-4

(* One search trial of Ansor/DietCode: CUDA codegen, nvcc compilation and
   on-device measurement. *)
let measure_trial_s = 0.5

let simulated ?(tree_steps = 0) ~analysis_steps ~measure_trials () =
  (float_of_int analysis_steps *. analysis_step_s)
  +. (float_of_int tree_steps *. tree_step_s)
  +. (float_of_int measure_trials *. measure_trial_s)
