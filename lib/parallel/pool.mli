(** Domain pool: the multicore fan-out over a graph's (or a sweep's)
    distinct kernels; each kernel's search runs sequentially inside.

    A pool owns [jobs - 1] worker domains pulling tasks from a shared queue;
    the caller participates in draining its own submissions, so a pool of
    [jobs] gives [jobs]-way parallelism.  [map] preserves input order in its
    results regardless of which domain ran which chunk, and with [jobs = 1]
    it degenerates to a plain sequential [List.map] — bit-identical to the
    pre-pool code path.

    Nested use is safe: a [map] issued from inside a worker task runs
    inline (sequentially) instead of deadlocking on the shared queue. *)

type t

(** [create ~jobs] spawns a pool of [jobs] (floored at 1) execution lanes:
    [jobs - 1] worker domains plus the calling domain.  Pools register an
    [at_exit] shutdown so stray pools cannot hang process exit. *)
val create : jobs:int -> t

val jobs : t -> int

(** [map pool f xs] is [List.map f xs] with the applications distributed
    over the pool in index-ordered chunks.  Results are returned in input
    order.  The first exception raised by any application (lowest index
    wins) is re-raised after all chunks settle. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the workers and join them.  Idempotent. *)
val shutdown : t -> unit

(** Parallelism width requested by the environment: [GENSOR_JOBS] when set
    to a positive integer, otherwise [Domain.recommended_domain_count ()]
    floored at 1 (the calling domain is one of the lanes).  Invalid values
    degrade loudly instead of misbehaving: zero or negative widths clamp to
    1 and unparseable values fall back to the machine default, each after a
    one-time warning on stderr (see {!Trace.Env}). *)
val default_jobs : unit -> int

(** [get ?jobs ()] is the shared process-wide pool of the given width
    (default {!default_jobs}), created on first use and reused after. *)
val get : ?jobs:int -> unit -> t

(** [map_auto ?jobs f xs]: sequential [List.map] when the effective width is
    1, otherwise {!map} on the shared pool.  This is the entry point of the
    one parallel grain, a graph's distinct kernels ([Dnn.Runner.run_graph],
    [Pipeline.Methods.sweep]). *)
val map_auto : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
