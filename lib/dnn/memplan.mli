(** Inter-op memory-reuse planner: live ranges of every intermediate
    tensor over the graph's topological order, the peak intermediate
    footprint, and a greedy first-fit arena assignment quantifying reuse.

    Weights and network inputs are not graph nodes and are deliberately
    outside the plan — this is the footprint inter-op scheduling can
    shrink. *)

type range = {
  node_id : int;
  node_name : string;
  bytes : int;
  born : int;  (** topological position producing the tensor *)
  dies : int;  (** last position reading it (inclusive); outputs die last *)
  slot : int;  (** arena slot from the greedy first-fit assignment *)
}

type t = {
  ranges : range list;
  peak_bytes : int;
  peak_at : int;
  total_bytes : int;  (** no-reuse arena: sum of all intermediates *)
  arena_bytes : int;  (** arena size after greedy slot reuse *)
  slots : int;
}

val plan : Graph.t -> t

(** [total_bytes / arena_bytes] — how much smaller reuse makes the arena. *)
val reuse_factor : t -> float

val pp_bytes : int Fmt.t

(** Summary: peak, totals, reuse factor. *)
val pp : t Fmt.t

(** Summary plus one line per live range. *)
val pp_full : t Fmt.t
