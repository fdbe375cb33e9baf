(** The compilation artifact record and its file codec.

    An artifact bundles a tuned schedule with everything needed to reuse it
    in another process: compute definition, ETIR configuration, predicted
    metrics, target device, and provenance.  [encode]/[decode] are exact
    inverses over the framed, checksummed text format of {!Codec}. *)

type verify_status =
  | Not_verified
  | Verified of Verify.Diagnostic.t list
      (** diagnostics of a {!Verify.run} at compile time *)

type t = {
  method_name : string;
  seed : int option;  (** search seed the schedule was tuned with *)
  steps : int;  (** construction states explored to find it *)
  device : Hardware.Gpu_spec.t;
  device_fingerprint : string;  (** {!Gpu_codec.fingerprint} of [device] *)
  compute : Tensor_lang.Compute.t;
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  verify : verify_status;
  cert : Verify.Cert.t option;
      (** shape-region legality certificate, when certification ran *)
}

(** [v ~method_name ~device ~etir ~metrics ()] builds an artifact; the
    compute definition and device fingerprint are derived. *)
val v :
  method_name:string ->
  ?seed:int ->
  ?steps:int ->
  ?verify:Verify.Diagnostic.t list ->
  ?cert:Verify.Cert.t ->
  device:Hardware.Gpu_spec.t ->
  etir:Sched.Etir.t ->
  metrics:Costmodel.Metrics.t ->
  unit ->
  t

val compute_fingerprint : t -> string
val verify_errors : t -> int

(** Axis extents joined with ["x"], e.g. ["512x512x1024"]. *)
val shape_string : t -> string

(** Complete framed file text (header + checksum + payload). *)
val encode : t -> string

(** Device sections decoded by one scan over many records.  Each distinct
    section text is decoded and fingerprinted once; a later record with
    the same text reuses the result, and its claimed [device_fp] is still
    checked against that fingerprint.  Scoped to one scan by its owner,
    never process-wide. *)
type devices

val devices : unit -> devices

(** Distinct device sections decoded into the table so far. *)
val devices_decoded : devices -> int

(** Total inverse of {!encode}; corrupt, truncated or stale-versioned text
    yields a positioned [Error].  [devices] interns the device section
    (default: a fresh table for this one record). *)
val decode : ?devices:devices -> string -> (t, Codec.error) result

val pp_summary : t Fmt.t
