(** Per-level memory traffic — the paper's [Q(T)]. *)

(** [bytes_into etir ~level] is the total bytes loaded into ETIR level
    [level] (0 = registers, 1 = shared memory, ...) from the next slower
    level, plus the written-through output. *)
val bytes_into : Sched.Etir.t -> level:int -> float

(** [bytes_into] of the tile whose effective tiles are the given row (slot
    order of {!Sched.Etir.eff_row}), with its per-tile input footprint
    supplied by the caller: incremental evaluation and the edge scorer
    compute it once and share it with the footprint term. *)
val bytes_into_row : Sched.Etir.t -> int array -> input_bytes:int -> float

(** Cold-miss floor: all inputs read once plus the output written once. *)
val compulsory_bytes : Sched.Etir.t -> float

(** DRAM traffic: outermost-level traffic, floored at compulsory bytes. *)
val dram_bytes : Sched.Etir.t -> float

val all_levels : Sched.Etir.t -> float array
