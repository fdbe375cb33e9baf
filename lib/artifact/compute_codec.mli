(** Text codec for {!Tensor_lang.Compute.t}.

    Encodes the whole tensor program — axes, input declarations, output and
    epilogue description, and the scalar body as a one-line s-expression.
    [decode] re-validates through [Compute.v], so a tampered artifact cannot
    produce an ill-formed program. *)

val encode : Buffer.t -> Tensor_lang.Compute.t -> unit
val decode : Codec.cursor -> (Tensor_lang.Compute.t, Codec.error) result

(** Content identity: MD5 hex of the canonical encoding.  The store keys
    artifacts by it. *)
val fingerprint : Tensor_lang.Compute.t -> string
