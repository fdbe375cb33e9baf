(** Simulated optimisation-time constants (see the .ml for rationale).

    Compilation-time comparisons (paper Figs. 8, 10, 12) depend on what each
    step costs in the real systems; all tables report both simulated and
    real wall time. *)

val simulated :
  ?tree_steps:int -> analysis_steps:int -> measure_trials:int -> unit -> float
