(** Inclusive integer intervals with conservative arithmetic.

    Used by the cost model to bound the set of tensor elements a tile of the
    iteration domain touches: the per-tile footprint behind the traffic [Q]
    and footprint [F] of paper Eq. 1.  Exact for affine index expressions,
    conservative for div/mod. *)

type t

(** [v lo hi] is the interval [lo..hi]; raises [Invalid_argument] when
    [lo > hi]. *)
val v : int -> int -> t

val point : int -> t
val lo : t -> int
val hi : t -> int

(** Number of integers in the interval. *)
val extent : t -> int

val contains : t -> int -> bool
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Floor division; the divisor interval must be positive. *)
val div : t -> t -> t

(** Remainder; the divisor interval must be positive. *)
val rem : t -> t -> t

val min_ : t -> t -> t
val max_ : t -> t -> t
val inter : t -> t -> t option

(** [of_index ~env idx] bounds [idx] when each variable ranges over
    [env var]. *)
val of_index : env:(string -> t) -> Index.t -> t

val pp : t Fmt.t
