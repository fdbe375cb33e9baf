(** Dense row-major float tensors for the CPU executor. *)

type t

(** [create shape] is a zero (or [init]) filled tensor.  Raises
    [Invalid_argument] on non-positive dimensions. *)
val create : ?init:float -> int list -> t

val shape : t -> int list
val size : t -> int

(** Element access; raises [Invalid_argument] on rank mismatch or
    out-of-bounds coordinates. *)

val get : t -> int list -> float
val set : t -> int list -> float -> unit

(** [init shape f] fills each coordinate with [f coords]. *)
val init : int list -> (int list -> float) -> t

(** Fill with uniform values in [-0.5, 0.5) from the deterministic RNG. *)
val fill_random : Sched.Rng.t -> t -> unit

(** First element pair (row-major order) violating the mixed criterion
    [|a-b| <= atol + rtol * max (|a|, |b|)] (defaults [atol = 1e-6],
    [rtol = 1e-4]), as [(coords, a_value, b_value)].  The relative term
    keeps the comparison meaningful as reduction depth (and thus output
    magnitude) grows; the absolute term covers near-zero elements.  The
    absolute-only check is reachable as [~rtol:0.0 ~atol:tol]. *)
val first_mismatch :
  ?atol:float -> ?rtol:float -> t -> t -> (int list * float * float) option

(** First element pair (row-major order) whose bit patterns
    ([Int64.bits_of_float]) differ.  Unlike a zero absolute difference,
    this distinguishes [-0.] from [0.] and does not skip NaNs. *)
val first_bit_mismatch : t -> t -> (int list * float * float) option

(** {2 Executor internals}

    Raw access for the compiled execution tier; offsets must come from the
    tensor's own row-major layout. *)

(** The underlying row-major buffer (shared, not a copy). *)
val unsafe_data : t -> float array

(** Row-major strides, outermost first (shared, not a copy). *)
val strides : t -> int array

(** Coordinates of a row-major offset into the buffer. *)
val coords_of_offset : t -> int -> int list

(** Zero-pad the two trailing dimensions of an NCHW tensor (for pre-padded
    convolution inputs). *)
val pad_hw : t -> pad:int -> t

val pp : t Fmt.t
