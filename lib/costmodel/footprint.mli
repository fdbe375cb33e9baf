(** Tile memory footprints — the paper's [F(T)] — evaluated from the
    state's compiled {!Tensor_lang.Footprint_plan}: affine index dimensions
    in closed form, the rest by interval analysis.

    Levels use ETIR numbering: 0 = per-thread registers, 1 = shared memory,
    2+ = outer caches. *)

(** Per-input-access footprint of a representative level tile, in elements:
    body accesses left to right, then the epilogue's operand reads. *)
val input_elems : Sched.Etir.t -> level:int -> (string * int) list

val input_bytes : Sched.Etir.t -> level:int -> int

(** Output-accumulator bytes of the level's spatial tile. *)
val output_bytes : Sched.Etir.t -> level:int -> int

(** {!output_bytes} of the tile whose effective tiles are the given row
    (slot order of {!Sched.Etir.eff_row}). *)
val output_bytes_row : Sched.Etir.t -> int array -> int

(** Footprint charged against the level's capacity: inputs plus accumulator
    except at the shared-memory level (accumulators live in registers). *)
val bytes_at : Sched.Etir.t -> level:int -> int
