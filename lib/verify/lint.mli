(** Kernel lint pass: the kernel tree cross-checked against ETIR-derived
    facts — shared-slice extents vs the footprint model, the accumulator
    vs the level-0 tile, kernel and launch symbols, launch dims and
    dynamic shared memory vs the ETIR's grid, block and footprint. *)

val check : Sched.Etir.t -> Codegen.Kernel.t -> Diagnostic.t list
