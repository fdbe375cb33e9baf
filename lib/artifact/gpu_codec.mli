(** Text codec for {!Hardware.Gpu_spec.t} plus a short device fingerprint.

    Artifacts embed the full device spec (self-describing files); the store
    keys entries by {!fingerprint}.  [decode] re-validates through
    [Gpu_spec.v] / [Mem_level.v]. *)

val encode : Buffer.t -> Hardware.Gpu_spec.t -> unit
val decode : Codec.cursor -> (Hardware.Gpu_spec.t, Codec.error) result

(** 12 hex digits of the MD5 of the canonical encoding — stable across
    builds and cheap to compare. *)
val fingerprint : Hardware.Gpu_spec.t -> string
