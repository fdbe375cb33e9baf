(** Shared pass composition: the single definition of which checks
    constitute schedule legality, used by [Verify.run] and the certificate
    engine's concrete corner validation. *)

(** §IV-C capacity and launch-limit violations as bounds-pass errors. *)
val capacity :
  Sched.Etir.t -> hw:Hardware.Gpu_spec.t -> Diagnostic.t list

(** Static checks, then race + lint over [kernel] (default
    [Codegen.Cuda.lower etir]). *)
val run :
  ?kernel:Codegen.Kernel.t ->
  Sched.Etir.t ->
  hw:Hardware.Gpu_spec.t ->
  Diagnostic.t list
