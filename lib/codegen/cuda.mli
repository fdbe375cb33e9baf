(** CUDA kernel lowering and emission.

    [lower] builds the one typed kernel tree ({!Kernel.t}) of a scheduled
    ETIR; [emit] and [emit_host] print it.  The kernel mirrors the
    scheduled executor's loop structure (block tiles, vthread stripes,
    chunked staged reduction, unrolled inner chunk).  Rendering only: this
    environment has no GPU toolchain, so the golden texts under
    [test/codegen/golden/] pin the printed bytes and the verifier checks
    the tree. *)

(** C-identifier kernel symbol for a compute ([<name>_kernel] with
    non-identifier characters, e.g. the ['+'] of fused names, mangled to
    ['_']). *)
val kernel_symbol : Tensor_lang.Compute.t -> string

(** The kernel tree of a scheduled ETIR. *)
val lower : Sched.Etir.t -> Kernel.t

(** Kernel source text: [Kernel.print (lower etir)]. *)
val emit : Sched.Etir.t -> string

(** Host-side launch snippet: [Kernel.print_host (lower etir)]. *)
val emit_host : Sched.Etir.t -> string
