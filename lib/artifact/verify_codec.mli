(** Text codec for {!Verify.Diagnostic.t} lists (artifact verify status). *)

val encode : Buffer.t -> Verify.Diagnostic.t list -> unit
val decode : Codec.cursor -> (Verify.Diagnostic.t list, Codec.error) result
