(** Typed CUDA kernel tree: the one lowering of a scheduled ETIR.

    {!Cuda.lower} builds it; {!print} and {!print_host} render it as CUDA
    text; the verifier's race and lint passes read it directly.  Extents,
    bounds and launch dimensions are integers, loops carry their role, and
    there is no conditional: every loop is either uniform across the block
    or marked [thread_dependent]. *)

(** A launch coordinate of [blockIdx] or [threadIdx]: [x], [y], [z], or a
    dimension folded into [z] as [z / stride % extent]. *)
type coord = X | Y | Z | Fold of { stride : int; extent : int }

type role =
  | Chunk of int  (** reduction chunk, stepping by the level-1 reduce tile *)
  | Staging  (** cooperative staging: threads stride by [blockDim.x] *)
  | Stripe  (** vthread stripe of a spatial axis *)
  | Element  (** element of a stripe *)
  | Unrolled  (** unrolled level-0 reduce chunk *)

(** [for (int var = start; var < bound; ...)]; a thread-dependent loop
    starts at [threadIdx.x], so threads may disagree on its trip count. *)
type loop = { role : role; var : string; bound : int; thread_dependent : bool }

type stmt =
  | Loop of loop * stmt list
  | Comment of string
  | Stage of string  (** staging write of one input's level-1 slice *)
  | Barrier  (** [__syncthreads()] *)
  | Spatial_index of { axis : string; threads : int; thread : coord; width : int }
      (** the axis coordinate from its block origin, stripe and element *)
  | Reduce_index of string  (** the axis coordinate from chunk and unroll *)
  | Accumulate of { combine : Tensor_lang.Compute.combine; value : Tensor_lang.Expr.t }

(** The epilogue: one store of the (scaled) accumulator, or of the fused
    tail evaluated over it, at the block origin. *)
type store = {
  out : string;
  axes : string list;
  scale : float;
  epilogue : Tensor_lang.Expr.t option;
}

(** Host-side launch of [callee]. *)
type host = { launch : Launch.t; callee : string }

type t = {
  source : string Lazy.t;
      (** ETIR signature, printed as a header comment; checks never force it *)
  symbol : string;
  inputs : (string * Tensor_lang.Dtype.t) list;
  output : string * Tensor_lang.Dtype.t;
  shared : (string * int) list;  (** [__shared__] slices, in floats *)
  origins : (string * coord * int) list;  (** axis, block coordinate, tile *)
  acc : int;  (** accumulator length *)
  init : float;
  body : stmt list;
  store : store;
  host : host;
}

(** Line of the [i]-th [shared] declaration in the printed kernel. *)
val shared_line : int -> int

(** Line of the accumulator declaration. *)
val acc_line : t -> int

(** [iter t f] visits every statement of the body in program order with
    the line it starts on in the printed kernel (an [Unrolled] loop starts
    at its pragma) and its enclosing loops, innermost first. *)
val iter : t -> (line:int -> loops:loop list -> stmt -> unit) -> unit

(** Kernel source text. *)
val print : t -> string

(** Host-side launch snippet. *)
val print_host : t -> string
