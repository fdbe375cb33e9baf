(** Reference executor for compute definitions — the semantic ground truth
    schedules are validated against.

    [run] stages the compute once (a slot per loop variable, closures for
    index expressions, bounds-checked loads, body and epilogue) and runs it
    in the definition's own order: spatial axes then reduce axes, each
    ascending, combining each body value as it comes.  It takes no schedule
    and shares only [Tensor] with [Compiled], so the VM is checked against
    an independent implementation of [Expr.eval]'s semantics.  Each run is
    an [exec.reference] trace span and adds its domain points to the
    [exec.reference.points] counter. *)

(** [run compute inputs] executes the definition directly over its iteration
    domain.  Raises [Invalid_argument] on missing inputs or shape
    mismatches. *)
val run : Tensor_lang.Compute.t -> (string * Tensor.t) list -> Tensor.t

(** Deterministic random inputs matching the declared input shapes. *)
val random_inputs :
  ?seed:int -> Tensor_lang.Compute.t -> (string * Tensor.t) list
