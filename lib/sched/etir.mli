(** ETIR — the enhanced tensor-program IR of paper §IV-A.

    An ETIR value is one node of the construction graph: a compute definition
    plus the memory-tiling configuration [D = [T_L; ...; T_1; T_0]] of every
    loop dimension and a virtual-thread configuration.  Level 0 is the
    per-thread (register) tile, level 1 the thread-block (shared-memory) tile,
    level 2 and beyond wave tiles for outer caches.  Values are immutable;
    scheduling primitives produce new states (see {!Action}). *)

open Tensor_lang

type t

(** [create compute] is the unscheduled initial state: every tile 1, no
    virtual threads, [cur_level] at the outermost cache level.
    [num_levels] is the paper's [L] (2 on NVIDIA GPUs). *)
val create : ?num_levels:int -> Compute.t -> t

val compute : t -> Compute.t

(** The paper's [L]: number of schedulable cache levels. *)
val num_levels : t -> int

(** Memory level currently being scheduled; starts at [num_levels], the
    [cache] action decrements it toward 0. *)
val cur_level : t -> int

val stile : t -> level:int -> dim:int -> int
val rtile : t -> level:int -> dim:int -> int

(** Effective tile at a level: the raw tile widened to cover every inner
    level's tile.  Raw tiles are unconstrained across levels; derived
    quantities (threads, grids, footprints) use the effective values, which
    are monotone by construction. *)
val stile_eff : t -> level:int -> dim:int -> int

val rtile_eff : t -> level:int -> dim:int -> int
val vthread : t -> dim:int -> int
val spatial_axes : t -> Axis.t array
val reduce_axes : t -> Axis.t array
val num_spatial : t -> int
val num_reduce : t -> int
val spatial_extents : t -> int array
val reduce_extents : t -> int array

(** Structural invariant check: tiles within [1, extent], vthreads within
    [1, thread tile].  Used by property tests and after every action. *)
val validate : t -> (unit, string) result

(** Physical threads along a spatial dim (block tile / thread tile). *)
val physical_threads_dim : t -> int -> int

(** Logical execution units along a dim: physical threads × vthreads
    (paper Fig. 3 — vthreads interleave stripes of each thread's tile). *)
val logical_threads_dim : t -> int -> int

val threads_per_block : t -> int
val logical_threads_per_block : t -> int

(** Number of thread blocks in the launch grid. *)
val grid_blocks : t -> int

(** Number of level-[l] spatial tile instances covering the output. *)
val spatial_tiles_at : t -> level:int -> int

(** Reduction steps performed per level-[l] tile. *)
val reduce_steps_at : t -> level:int -> int

(** [tile_env t ~level] is the interval environment of a representative
    level-[l] tile for footprint analysis.  Raises [Invalid_argument] on an
    unknown axis name. *)
val tile_env : t -> level:int -> string -> Interval.t

(** Functional updates (no legality checks beyond array bounds; use
    {!Action.apply} for checked transitions). *)

val with_cur_level : t -> int -> t
val with_stile : t -> level:int -> dim:int -> int -> t
val with_rtile : t -> level:int -> dim:int -> int -> t
val with_vthread : t -> dim:int -> int -> t

(** [retarget t compute'] re-aims a configuration at a structurally identical
    compute definition with different extents (dynamic shapes, template
    dispatch), clamping tiles and vthreads.  Raises [Invalid_argument] when
    the axis structure differs. *)
val retarget : t -> Tensor_lang.Compute.t -> t

(** Canonical state key for graph memoisation and deduplication. *)
val signature : t -> string

(** 64-bit structural hash of the evaluation-relevant state: the compute's
    {!Tensor_lang.Compute.fingerprint} (cached at construction), level
    count, all tiles and vthreads.  Excludes
    [cur_level] (a construction cursor): states differing only in it
    produce identical metrics, so they share dedup slots (optimizer
    candidates, annealing samples).  Cached per state; never 0. *)
val fingerprint : t -> int64

(** Exact equality on the fingerprinted structure (still ignoring
    [cur_level]).  Dedupe uses this to collision-check a fingerprint
    bucket. *)
val eval_equal : t -> t -> bool

val equal : t -> t -> bool
val pp : t Fmt.t
