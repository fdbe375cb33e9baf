(** Compiled execution tier: an ETIR schedule lowered to a flat
    register-based bytecode program (pre-resolved axis slots, precomputed
    row-major strides, the reduce nest as a table of offset-delta runs),
    run by a tight dispatch-loop VM.

    The VM walks the output in row tiles (the kernel's level-1 block box,
    widened by whole blocks to at least 64 elements along the last spatial
    axis and 4 rows along the one before it).  A multiply-accumulate body
    walks the run table once per tile, updating every element of every
    row at the next four reduce points per pass, drawn across run
    boundaries (one at a time for the nest's last [points mod 4]); on rows
    where one operand does not step and the other steps by 1, each pass
    holds 4 elements x 4 points in registers.  Other bodies fill the same
    tile accumulator element by element.  An epilogue whose reads are all
    affine runs once per row, each instruction over the row's elements.  Every element is
    reduced over its reduce points in ascending lexicographic order, as
    {!Reference.run} does, so the two agree bit for bit and the reference
    is the differential-testing oracle.  The bytecode ISA and compilation
    scheme are documented in DESIGN.md §15. *)

type t
(** A compiled program for one schedule. *)

(** Lower a schedule's tiled loop nest to bytecode.  Raises
    [Invalid_argument] on a body variable that is not an axis or a read of
    an undeclared tensor (both already rejected by [Compute.v]). *)
val compile : Sched.Etir.t -> t

(** Run a compiled program.  Input tensors are matched by name and
    validated against the declared shapes ([Invalid_argument] on a missing
    input or shape mismatch).  The result carries the per-element coverage
    tensor ({!Scheduled.coverage_exact}). *)
val run_compiled : t -> (string * Tensor.t) list -> Scheduled.result

(** [run etir inputs] is [run_compiled (compile etir) inputs].  Compilation
    is microseconds; amortise it with {!compile} + {!run_compiled} only in
    tight re-execution loops. *)
val run : Sched.Etir.t -> (string * Tensor.t) list -> Scheduled.result

(** The reduction lowering: the run extents, outermost first, and the
    kernel, e.g. [reduce runs [3;3] mac unit-step A]; a multiply-accumulate
    names its four-point pass ([unit-step B]: A does not step along a row
    and B steps by 1, [unit-step A] the other way round, [strided A]: B
    does not step and A steps by more than 1, else [general]).  Prints
    [per-point offsets] when some body access is not affine. *)
val pp_reduction : t Fmt.t

(** One-line program summary: site/instruction counts, the epilogue
    ([epi 9 words], or [epi 9 words per element] when some epilogue access
    is not affine), the reduction lowering ({!pp_reduction}) and the row
    tile, e.g. [row tile [4;64]]. *)
val pp : t Fmt.t
