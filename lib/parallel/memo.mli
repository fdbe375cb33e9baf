(** Lock-sharded memoization cache.

    Keys are hashed with a caller-supplied function (typically an
    {!Sched.Etir.fingerprint}-derived hash) and spread over independently
    locked shards, so concurrent domains rarely contend.  Exact equality is
    re-checked on every probe — a hash collision degrades to a miss, never
    to a wrong value.  Each cache keeps hit/miss/eviction counters and
    registers itself in a process-wide registry so the report layer can
    surface cache effectiveness without a profiler.

    Caches are on by default; {!set_enabled} switches all of them at
    runtime (the transparency tests compare both settings). *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries dropped by capacity resets *)
  entries : int;    (** currently resident *)
}

(** [create ~name ~hash ~equal ()] registers a new cache under [name].
    [shards] (default 16, rounded up to a power of two) bounds lock
    contention; [capacity] (default 65536) bounds total entries — a shard
    that overflows its share is reset wholesale, which is cheap and keeps
    hot keys re-cacheable. *)
val create :
  ?shards:int ->
  ?capacity:int ->
  name:string ->
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t

(** [find_or_add cache key compute] returns the cached value for [key] or
    runs [compute] (outside any lock) and caches its result.  When caching
    is disabled this is just [compute ()]. *)
val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** Lock-free counter snapshot: hit/miss/eviction counters are per-shard
    atomics, so aggregation never tears under concurrent probes
    ([GENSOR_JOBS] > 1) and never contends with the hot path. *)
val stats : ('k, 'v) t -> stats

(** Drop all entries and reset the counters. *)
val clear : ('k, 'v) t -> unit

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Stats of every cache created so far, in creation order. *)
val all_stats : unit -> (string * stats) list

(** {!clear} every registered cache. *)
val clear_all : unit -> unit
