(** Text codec for {!Verify.Cert.t} (shape-region legality certificates). *)

val encode : Buffer.t -> Verify.Cert.t -> unit
val decode : Codec.cursor -> (Verify.Cert.t, Codec.error) result
