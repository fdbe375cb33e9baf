(** Text codec for {!Costmodel.Metrics.t} (exact float round-trip). *)

val encode : Buffer.t -> Costmodel.Metrics.t -> unit
val decode : Codec.cursor -> (Costmodel.Metrics.t, Codec.error) result
