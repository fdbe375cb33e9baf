(** Incremental cost-model evaluation along construction edges.

    [Model.evaluate] = aggregation over a {!components} record; every
    construction action declares which components it can change
    ({!Sched.Action.invalidation}), so {!child} rebuilds only those and
    reuses the rest from the parent.  A policy step builds a child only for
    the edge it draws: every candidate edge is scored by {!score_edge} from
    the parent's data alone.  [of_etir] is the full-rebuild oracle;
    [set_enabled false] routes every [child] through it.  Records are frozen
    once built and safe to share. *)

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

(** {2 Edge scoring}

    The after-state terms the Eq. 1–3 benefits read, derived for an edge
    without building its child: per-chain scratch, reused edge after
    edge. *)

type scratch = private {
  sc_row : int array;  (** the refilled level's effective tiles *)
  sc_footprint : int array;  (** the child's footprints, levels [0..L] *)
  sc_terms : float array;
      (** [sc_terms.(0)]: the child's traffic at the edited level;
          [sc_terms.(1)]: the child's SM occupancy *)
  mutable sc_chunk_flops : int;  (** the child's ILP chunk *)
}

(** Scratch sized for states of [etir]'s compute.  Owned by one chain: it
    is written by every {!score_edge} and never shared across domains. *)
val scratch : Sched.Etir.t -> scratch

(** [score_edge ~hw s ~before ~parent action target] is whether the child
    of the legal edge [before --action-->] passes the capacity check,
    where [target = Sched.Action.target before action] and [parent] is
    [before]'s record.  For a tile edit that passes, [s] then holds the
    child's footprints, its traffic at the edited level, its occupancy and
    its ILP chunk — the values the child's {!child} record would hold,
    bit for bit.  [Cache] and [Set_vthread] edges leave every term the
    parent's and write nothing.  Allocates no successor or record, and
    does not count as a build. *)
val score_edge :
  hw:Hardware.Gpu_spec.t ->
  scratch ->
  before:Sched.Etir.t ->
  parent:components ->
  Sched.Action.t ->
  int ->
  bool

(** Adds to the [delta.edges_scored] counter; the policy calls it once per
    step with the number of edges it scored. *)
val count_edges_scored : int -> unit

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

(** The allocation-free form for sweeps over many states, whose vectors sit
    side by side in one flat array.  [dominance_width c] is the length of
    [c]'s vector (all states of one compute and device share it);
    [dominance_capacities] are the per-level capacities the vector divides
    by, looked up once per sweep; [write_dominance ~caps c v ~off] writes
    [dominance_vector]'s values into [v] from [off] and returns [true], or
    writes nothing and returns [false] where [dominance_vector] is [None];
    [dominates_in] is [dominates] over [width] values from the offsets. *)
val dominance_width : components -> int

val dominance_capacities :
  hw:Hardware.Gpu_spec.t -> num_levels:int -> float array

val write_dominance :
  caps:float array -> components -> float array -> off:int -> bool

val dominates_in :
  float array -> a_off:int -> float array -> b_off:int -> width:int -> bool

(** {2 Gating and counters} *)

(** Incremental evaluation on/off (default on; the transparency tests
    switch it off to compare against the full-rebuild oracle).  Off forces
    full rebuilds of drawn children only: edge scores never come from a
    built child, and the scorer's equivalence test in test/core pins them
    to the oracle. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

type stats = {
  st_full_builds : int;
  st_incremental_builds : int;
  st_levels_recomputed : int;
  st_levels_reused : int;
}

(** Lock-free snapshot of the build counters (atomics, safe under
    [GENSOR_JOBS>1]).  [st_incremental_builds] counts built children: one
    per drawn edge, not one per scored edge. *)
val stats : unit -> stats

val reset_stats : unit -> unit
