(* Schedule legality verifier: the static-analysis gate between scheduling
   and codegen.

   Every compilation method in this reproduction is scored by the same
   analytical model, so one illegal-but-well-scored schedule silently
   corrupts every relative comparison.  [run] proves three families of
   facts about a scheduled state and its kernel tree ({!Codegen.Kernel}):

   - {!Bounds}: affine-interval bounds of every tensor access under the
     tiling, plus tile-vs-extent divisibility (guard obligations);
   - {!Race}: happens-before legality of the staged shared-memory
     reduction (missing or divergent __syncthreads());
   - {!Lint}: the kernel tree against ETIR-derived facts (shared-slice
     extents, accumulator, symbols, launch dims and shared memory).

   Capacity and launch-limit violations (the paper's §IV-C memory check,
   {!Costmodel.Mem_check}) are folded in as bounds-pass errors so that one
   call gives the complete legality verdict for a final state.  The actual
   pass composition lives in {!Passes} — the single definition [run] and
   the {!Cert} engine share, so they cannot drift.

   {!Cert} is the symbolic tier: it certifies a whole shape region per
   schedule; the kernel cache and the dynamic-shape executor consult its
   certificates before dispatching a cached kernel to a new shape.

   Run and per-pass error tallies report through the {!Trace.Counter}
   registry ([verify.runs], [verify.errors.bounds|race|lint]); each pass
   runs inside a [Trace.with_span]. *)

module Diagnostic = Diagnostic
module Bounds = Bounds
module Race = Race
module Lint = Lint
module Passes = Passes
module Cert = Cert
module Export = Export

let runs_counter = Trace.Counter.make "verify.runs"
let bounds_errors = Trace.Counter.make "verify.errors.bounds"
let race_errors = Trace.Counter.make "verify.errors.race"
let lint_errors = Trace.Counter.make "verify.errors.lint"

let tally ds =
  Trace.Counter.incr runs_counter;
  List.iter
    (fun d ->
      if Diagnostic.is_error d then
        match d.Diagnostic.pass with
        | Diagnostic.Bounds -> Trace.Counter.incr bounds_errors
        | Diagnostic.Race -> Trace.Counter.incr race_errors
        | Diagnostic.Lint -> Trace.Counter.incr lint_errors
        | Diagnostic.Cert -> ())
    ds;
  ds

let run ?kernel etir ~hw = tally (Passes.run ?kernel etir ~hw)
let ok etir ~hw = Diagnostic.errors (run etir ~hw) = []
