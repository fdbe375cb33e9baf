(** Scheduling primitives: the edges of the construction graph.

    [Tile]/[Rtile] grow or shrink one dimension's tile at a given memory
    level (shrink is the paper's inverse tiling, giving same-level
    irreducibility).  [Cache] switches scheduling to the next faster level.
    [Set_vthread] adjusts a spatial dimension's virtual-thread count. *)

type dir = Grow | Shrink

type t =
  | Tile of { level : int; dim : int; dir : dir }
  | Rtile of { level : int; dim : int; dir : dir }
  | Cache
  | Set_vthread of { dim : int; dir : dir }

val to_string : t -> string
val pp : t Fmt.t

(** The invalidation footprint of an action: which cost-model component
    groups of the parent state an incremental evaluator must recompute for
    the child (everything else is structurally unchanged).  Effective tiles
    at level [k] aggregate raw tiles at levels [0..k], so a tile edit at
    level [l] only moves per-level terms at levels [>= l]; [Cache] moves
    only the construction cursor and invalidates nothing. *)
type invalidation = {
  inv_levels_from : int option;
      (** per-level traffic/footprint terms at levels >= this are stale;
          [None] = all reusable *)
  inv_occupancy : bool;
  inv_conflict : bool;
  inv_chunk : bool;  (** per-thread unroll chunk (ILP term) *)
}

val invalidation : t -> invalidation

(** [target etir action] is the value [action] writes into the one slot it
    edits — the new tile size ([Tile]/[Rtile]), the new vthread count
    ([Set_vthread]) or the new cursor level ([Cache]) — or [-1] when the
    action is illegal from [etir] (tile bounds, vthread capacity, no faster
    level left).  The single legality rule behind {!apply}; allocates
    nothing. *)
val target : Etir.t -> t -> int

(** [apply etir action] is the successor state, or [None] when
    [target etir action] is [-1]. *)
val apply : Etir.t -> t -> Etir.t option

(** All syntactically plausible actions from a state (legality decided by
    {!apply}). *)
val candidates : Etir.t -> t list

(** Legal (action, successor) pairs: the outgoing edges at [etir]. *)
val successors : Etir.t -> (t * Etir.t) list
