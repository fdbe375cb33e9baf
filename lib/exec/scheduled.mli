(** The result of running a schedule on the CPU ({!Compiled.run}) and its
    partition check. *)

type result = {
  output : Tensor.t;
  coverage : Tensor.t;  (** per-output-element visit count *)
}

(** True when every output element was written exactly once — the partition
    invariant of a correct schedule. *)
val coverage_exact : result -> bool

(** First output element (row-major order) whose visit count is not 1, with
    its observed count — the actionable diagnostic behind a failed
    {!coverage_exact}.  [None] iff the coverage is exact. *)
val coverage_violation : result -> (int list * float) option

(** Printer for a {!coverage_violation} witness
    (e.g. ["output[3,0] written 2 times (expected 1)"]). *)
val pp_coverage_violation : (int list * float) Fmt.t
