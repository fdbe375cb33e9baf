(** Compiled tile-footprint analysis of a compute definition.

    [of_compute] lowers every body and epilogue access once into a form that
    bounds the footprint of a representative tile (each axis ranging over
    [0, tile - 1]) from the tile sizes alone, with no name lookups.  Axes are
    addressed by slot: spatial axis [i] is slot [i], reduce axis [j] is slot
    [n_spatial + j], both in declaration order.

    The forms produce exactly the extents {!Interval.of_index} gives over
    the same tile: an affine dimension sums one [|coefficient|] per variable
    {e occurrence} (never per variable — [i + 7 - i] spans [2t - 1]
    elements under interval analysis, and so it does here), and every other
    dimension is evaluated by interval analysis itself. *)

(** An index expression with its variables resolved to slots. *)
type gexpr =
  | Slot of int
  | Const of int
  | Add of gexpr * gexpr
  | Sub of gexpr * gexpr
  | Mul of gexpr * gexpr
  | Div of gexpr * gexpr
  | Mod of gexpr * gexpr
  | Min of gexpr * gexpr
  | Max of gexpr * gexpr

(** One tensor dimension of an access. *)
type dim =
  | Affine of { slots : int array; coeffs : int array }
      (** [extent = 1 + Σ_k coeffs.(k) * (tile slots.(k) - 1)]: one entry
          per variable occurrence, [coeffs] holding [|c|]. *)
  | General of gexpr
      (** [Div]/[Mod]/[Min]/[Max] or a variable product: extent of the
          interval over the tile. *)

type entry = {
  tensor : string;
  elem_bytes : int;  (** element size of the accessed input *)
  dims : dim array;
}

type t = {
  n_spatial : int;
  entries : entry array;
      (** body accesses left to right, then the epilogue's operand reads *)
}

(** Raises [Invalid_argument] on an access to an undeclared tensor or an
    unknown axis ({!Compute.v} already rejects both). *)
val of_compute : Compute.t -> t

(** The evaluators read tiles from a [row] indexed by slot: [row.(s)] is
    the tile of slot [s], which ranges over [0, row.(s) - 1]. *)

(** Footprint of one access over the row's tile, in elements. *)
val entry_elems : int array -> entry -> int

(** Sum over entries of [entry_elems * elem_bytes]: the tile's input
    footprint in bytes. *)
val input_bytes : t -> int array -> int
