(** Race/synchronisation pass over the staged shared-memory reduction.

    Walks the reduction-chunk loop of the kernel tree as a happens-before
    problem over (thread set, address interval, phase) events and verifies
    that every conflicting cross-thread write/read pair of a staged slice is
    separated by an unconditional [__syncthreads()] — in program order
    within a chunk iteration and across the loop-carried wrap-around edge.
    Barriers under a thread-dependent loop are themselves errors (barrier
    divergence).  Single-thread blocks have no cross-thread conflicts and
    produce no diagnostics. *)

val check : Sched.Etir.t -> Codegen.Kernel.t -> Diagnostic.t list
