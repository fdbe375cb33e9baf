(** Symbolic intervals: shape-parametric counterpart of {!Interval}.

    Endpoints are affine forms [Σ cᵢ·sᵢ + k] over named shape symbols.
    The legality-certificate tier (lib/verify) evaluates tensor-access
    regions and footprints in this domain so one analysis run covers a
    whole region of shapes.  Exact for affine index arithmetic;
    multiplication of two symbolic forms, division and modulo widen to the
    concrete interval over the declared symbol region ([range]), mirroring
    {!Interval}'s conservatism. *)

module Affine : sig
  (** [Σ cᵢ·sᵢ + k] in canonical form (terms sorted by symbol, no zero
      coefficients) — structural equality is semantic equality. *)
  type t

  val const : int -> t
  val zero : t

  (** [sym ?coeff name] is [coeff·name]; raises on an empty name. *)
  val sym : ?coeff:int -> string -> t

  val is_const : t -> bool

  (** [Some k] iff the form is the constant [k]. *)
  val const_val : t -> int option

  (** The constant term [k]. *)
  val offset : t -> int

  (** Symbols with non-zero coefficient, sorted. *)
  val syms : t -> string list

  val coeff : t -> string -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : int -> t -> t
  val add_const : int -> t -> t

  (** Affine product, when one side is constant. *)
  val mul : t -> t -> t option

  val eval : env:(string -> int) -> t -> int

  (** Tight bounds of the form over the box [range] (affine forms are
      monotone per coordinate, so corner evaluation is exact). *)
  val bounds : range:(string -> Interval.t) -> t -> Interval.t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : t Fmt.t
  val to_string : t -> string
end

type t

(** [v lo hi] trusts the caller that [lo <= hi] holds on the intended
    region (no symbolic decision procedure is invoked). *)
val v : Affine.t -> Affine.t -> t

val point : Affine.t -> t
val of_interval : Interval.t -> t
val lo : t -> Affine.t
val hi : t -> Affine.t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

(** Exact when one operand is a constant point; otherwise widens over
    [range]. *)
val mul : range:(string -> Interval.t) -> t -> t -> t

val div : range:(string -> Interval.t) -> t -> t -> t
val rem : range:(string -> Interval.t) -> t -> t -> t
val min_ : range:(string -> Interval.t) -> t -> t -> t
val max_ : range:(string -> Interval.t) -> t -> t -> t

(** [of_index ~env ~range idx] bounds [idx] when each loop variable ranges
    over [env var]; [range] supplies each symbol's declared region for the
    widening fallbacks. *)
val of_index :
  env:(string -> t) -> range:(string -> Interval.t) -> Index.t -> t

val pp : t Fmt.t
