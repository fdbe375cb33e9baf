(** Text codec for the schedulable configuration of an ETIR state (tiles,
    reduce tiles, vthreads, [cur_level]).

    The compute definition is encoded separately ({!Compute_codec});
    [decode] builds the state against it from the decoded rows with
    [Sched.Etir.of_rows], which re-checks [Sched.Etir.validate], so corrupt
    tile values are rejected rather than mis-loaded. *)

val encode : Buffer.t -> Sched.Etir.t -> unit

val decode :
  compute:Tensor_lang.Compute.t ->
  Codec.cursor ->
  (Sched.Etir.t, Codec.error) result
