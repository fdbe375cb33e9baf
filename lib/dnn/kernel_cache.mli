(** Dynamic optimizing system: a kernel cache for dynamic-shape inference.

    Exact shapes hit the cache; new shapes of a known operator family
    warm-start Gensor from the structurally nearest cached schedule (a
    quarter-budget refinement); unknown families pay one full cold
    construction.  This is the paper's ongoing-work direction
    ("a dynamic optimizing system based on Gensor").

    The cache is two-tier: pass [?store] to back the in-memory table with a
    persistent {!Artifact.Store}.  Store entries tuned for the same device
    are preloaded at {!create} — a second process gets exact hits and warm
    starts instead of cold constructions — and every construction is
    written through. *)

type entry = {
  compute : Tensor_lang.Compute.t;
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  cert : Verify.Cert.t option;
      (** shape-region legality certificate, when the cache certifies *)
}

type lookup = Hit | Cert_hit | Warm_miss | Cold_miss

(** Immutable counter snapshot, taken by {!stats}. *)
type stats = {
  hits : int;
  cert_hits : int;  (** {!dispatch} served by a certificate admission *)
  cert_rejects : int;
      (** {!dispatch} refused a cached kernel: shape outside every
          certified region of its family *)
  warm_misses : int;
  cold_misses : int;
  construction_steps : int;
  store_hits : int;  (** hits served by an entry preloaded from the store *)
  store_writes : int;  (** constructions written through to the store *)
}

type t

(** [certify] makes every construction also run {!Verify.Cert.certify} and
    attach the certificate to the entry (and its store record), enabling
    {!dispatch}.  Defaults to [false]: [compile]-only users pay nothing. *)
val create :
  ?config:Gensor.Optimizer.config ->
  ?certify:bool ->
  ?store:Artifact.Store.t ->
  hw:Hardware.Gpu_spec.t ->
  unit ->
  t

(** Exact shape key: quoted operator name + per-axis kind marker and
    extent + {!Tensor_lang.Compute.fingerprint}.  The name/axis part cannot
    be confused by names containing the joiner characters ('|', 'x', ','),
    and the fingerprint separates computes that share name and extents but
    differ in input shapes, body or epilogue; two distinct computes share a
    key only on a 64-bit fingerprint collision.  {!compile}, {!dispatch}
    and the store preload all look up exact entries by this key. *)
val shape_key : Tensor_lang.Compute.t -> string

(** Family key: quoted operator name + axis structure (quoted names and
    kinds), extents ignored. *)
val family_key : Tensor_lang.Compute.t -> string

(** [compile t compute] returns the kernel for this shape, compiling and
    caching (and writing through to the store, when present) on a miss. *)
val compile : t -> Tensor_lang.Compute.t -> entry * lookup

(** [dispatch t compute] is certificate-gated lookup: an exact hit behaves
    like {!compile}; otherwise a family member whose legality certificate
    {!Verify.Cert.admits_compute} the shape is retargeted and re-scored
    with no construction ([Cert_hit], counter [verify.cert.hit]).  A shape
    outside every certified region is refused ([verify.cert.reject]) and
    falls back to {!compile} — a cached kernel is never dispatched beyond
    the region it was proved legal on. *)
val dispatch : t -> Tensor_lang.Compute.t -> entry * lookup

(** Snapshot of the counters at this instant. *)
val stats : t -> stats

val size : t -> int

(** How many entries arrived from the persistent store at {!create}. *)
val preloaded_count : t -> int
