(* Lock-sharded memo cache with collision-checked probes.

   Shard tables are keyed by the full hash and bucket a small association
   list probed with the caller's exact [equal]; a collision therefore costs
   a recompute, never a wrong answer — which is what keeps parallel and
   sequential runs bit-identical even though cache fill order differs. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

(* Hit/miss/eviction counters are atomics bumped outside the shard lock:
   under GENSOR_JOBS>1 concurrent probes of one shard never tear a counter,
   and [stats] snapshots without contending with the hot path.  [entries]
   stays a plain field guarded by [lock] — it is only touched during
   insertion, which already holds it. *)
type ('k, 'v) shard = {
  lock : Mutex.t;
  mutable table : (int, ('k * 'v) list) Hashtbl.t;
  mutable entries : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  mask : int;
  shard_capacity : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
}

let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Registry for the report layer; closures keep the caches polymorphic. *)
let registry : (string * (unit -> stats) * (unit -> unit)) list ref = ref []
let registry_lock = Mutex.create ()

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let shard_stats s =
  { hits = Atomic.get s.hits; misses = Atomic.get s.misses;
    evictions = Atomic.get s.evictions; entries = s.entries }

(* Lock-free aggregation: atomics read directly, [entries] is a single-word
   read (never torn) whose worst case is a just-superseded value. *)
let stats cache =
  Array.fold_left
    (fun (acc : stats) shard ->
      let s = shard_stats shard in
      { hits = acc.hits + s.hits; misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
        entries = acc.entries + s.entries })
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    cache.shards

let clear cache =
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Hashtbl.reset shard.table;
      shard.entries <- 0;
      Atomic.set shard.hits 0;
      Atomic.set shard.misses 0;
      Atomic.set shard.evictions 0;
      Mutex.unlock shard.lock)
    cache.shards

let create ?(shards = 16) ?(capacity = 65536) ~name ~hash ~equal () =
  let n = pow2_at_least (max 1 shards) 1 in
  let cache =
    { shards =
        Array.init n (fun _ ->
            { lock = Mutex.create (); table = Hashtbl.create 64; entries = 0;
              hits = Atomic.make 0; misses = Atomic.make 0;
              evictions = Atomic.make 0 });
      mask = n - 1;
      shard_capacity = max 8 (capacity / n);
      hash; equal }
  in
  Mutex.lock registry_lock;
  registry := !registry @ [ (name, (fun () -> stats cache), fun () -> clear cache) ];
  Mutex.unlock registry_lock;
  (* The unified counter registry reads the shard atomics through probes:
     the shards keep their per-shard layout (contention), the registry
     gains one place every layer's counters are read from. *)
  List.iter
    (fun (suffix, view) ->
      Trace.Counter.register_probe
        (Printf.sprintf "memo.%s.%s" name suffix)
        (fun () -> view (stats cache)))
    [ ("hits", fun s -> s.hits); ("misses", fun s -> s.misses);
      ("evictions", fun s -> s.evictions); ("entries", fun s -> s.entries) ];
  cache

let find_or_add cache key compute =
  if not (Atomic.get enabled_flag) then compute ()
  else begin
    let h = cache.hash key in
    let shard = cache.shards.(h land cache.mask) in
    Mutex.lock shard.lock;
    let hit =
      match Hashtbl.find_opt shard.table h with
      | None -> None
      | Some bucket ->
        List.find_opt (fun (k, _) -> cache.equal k key) bucket
    in
    match hit with
    | Some (_, v) ->
      Mutex.unlock shard.lock;
      Atomic.incr shard.hits;
      v
    | None ->
      Mutex.unlock shard.lock;
      Atomic.incr shard.misses;
      (* Compute outside the lock: evaluations are orders of magnitude
         slower than a probe, and the key hierarchy (model -> traffic ->
         footprint caches) stays trivially deadlock-free this way.  Two
         domains racing on the same key both compute the same pure value. *)
      let v = compute () in
      Mutex.lock shard.lock;
      if shard.entries >= cache.shard_capacity then begin
        ignore (Atomic.fetch_and_add shard.evictions shard.entries);
        Hashtbl.reset shard.table;
        shard.entries <- 0
      end;
      let bucket =
        match Hashtbl.find_opt shard.table h with Some b -> b | None -> []
      in
      if not (List.exists (fun (k, _) -> cache.equal k key) bucket) then begin
        Hashtbl.replace shard.table h ((key, v) :: bucket);
        shard.entries <- shard.entries + 1
      end;
      Mutex.unlock shard.lock;
      v
  end

let all_stats () =
  Mutex.lock registry_lock;
  let entries = !registry in
  Mutex.unlock registry_lock;
  List.map (fun (name, stats, _) -> (name, stats ())) entries

let clear_all () =
  Mutex.lock registry_lock;
  let entries = !registry in
  Mutex.unlock registry_lock;
  List.iter (fun (_, _, clear) -> clear ()) entries
