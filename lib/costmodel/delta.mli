(** Incremental cost-model evaluation along construction edges.

    [Model.evaluate] = aggregation over a {!components} record; every
    construction action declares which components it can change
    ({!Sched.Action.invalidation}), so {!child} rebuilds only those and
    reuses the rest from the parent.  [of_etir] is the full-rebuild oracle;
    [set_enabled false] routes every [child] through it.  Records are frozen once built and safe to share. *)

type components = {
  traffic : float array;
      (** bytes into ETIR level [l], levels [0..L]; unfloored at [L] — the
          compulsory floor is applied at aggregation *)
  footprint : int array;  (** capacity-charged bytes at levels [0..L] *)
  compulsory : float;  (** cold-miss traffic floor, chain-constant *)
  occ : Occupancy.t;
  conflict_raw : float;  (** raw warp serialisation degree, undiluted *)
  chunk_flops : int;  (** per-thread innermost chunk (ILP term) *)
  total_flops : float;  (** chain-constant *)
}

(** Full component build — the oracle the incremental path is tested
    against bit-for-bit. *)
val of_etir : hw:Hardware.Gpu_spec.t -> Sched.Etir.t -> components

(** [child ~hw ~before ~parent ~action next] is the component record of
    [next], reached from the [before] state (whose record is [parent]) via
    [action], recomputing only the components the action invalidates — and
    of the per-level terms, only the contiguous run of levels whose
    effective tiles actually moved.  Falls back to {!of_etir} when
    incremental evaluation is disabled. *)
val child :
  hw:Hardware.Gpu_spec.t ->
  before:Sched.Etir.t ->
  parent:components ->
  action:Sched.Action.t ->
  Sched.Etir.t ->
  components

(** FLOPs one thread issues per innermost reduce chunk (the ILP term);
    re-exported by [Model] under its historical name. *)
val thread_chunk_flops : Sched.Etir.t -> int

(** {2 Dominance}

    A lower-is-better vector of everything the aggregation consumes.  If
    [dominates a b] then the state behind [a] scores no worse than the one
    behind [b] under the monotone aggregation (ties are possible where
    saturating terms clamp; see DESIGN.md §10).  [None] for launch-infeasible
    states, which construction must keep expandable. *)

val dominance_vector : hw:Hardware.Gpu_spec.t -> components -> float array option

(** Pointwise [<=] with at least one strict [<]; [false] on length
    mismatch. *)
val dominates : float array -> float array -> bool

(** {2 Gating and counters} *)

(** Incremental evaluation on/off (default on; the transparency tests
    switch it off to compare against the full-rebuild oracle). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

type stats = {
  st_full_builds : int;
  st_incremental_builds : int;
  st_levels_recomputed : int;
  st_levels_reused : int;
}

(** Lock-free snapshot of the build counters (atomics, safe under
    [GENSOR_JOBS>1]). *)
val stats : unit -> stats

val reset_stats : unit -> unit
val pp_stats : stats Fmt.t
