(** Schedule legality verifier: the static-analysis gate between scheduling
    and codegen.

    [run] executes the three passes — {!Bounds} (interval bounds of every
    access under the tiling), {!Race} (happens-before legality of the staged
    shared-memory reduction), {!Lint} (kernel tree vs ETIR facts) — plus
    the §IV-C capacity/launch checks, and returns every finding.  A state
    with no [Error]-severity diagnostics is legal to ship; [Warning]s mark
    boundary-guard obligations of non-dividing tiles.

    The pass composition is shared with the symbolic tier through
    {!Passes}; {!Cert} certifies whole shape regions per schedule.  Top
    level runs and per-pass error counts report through {!Trace.Counter}
    ([verify.runs], [verify.errors.bounds|race|lint]). *)

module Diagnostic = Diagnostic
module Bounds = Bounds
module Race = Race
module Lint = Lint
module Passes = Passes
module Cert = Cert
module Export = Export

(** All diagnostics of the state: capacity, bounds, race and lint passes
    over its kernel tree, [Codegen.Cuda.lower etir] unless [kernel] is
    given (an edited tree, for mutation tests). *)
val run :
  ?kernel:Codegen.Kernel.t ->
  Sched.Etir.t ->
  hw:Hardware.Gpu_spec.t ->
  Diagnostic.t list

(** No [Error]-severity diagnostics. *)
val ok : Sched.Etir.t -> hw:Hardware.Gpu_spec.t -> bool
