(** Compute definitions: the "tensor programs" being scheduled.

    A compute definition is an iteration domain (spatial + reduce axes), a set
    of input tensor declarations, and a scalar body whose values are combined
    (summed or max-reduced) over the reduce axes into an output indexed by the
    spatial axes in declaration order. *)

type combine = Sum | Max_combine

type input = { in_name : string; in_shape : int list; in_dtype : Dtype.t }
type t

(** [v ~name ~axes ~inputs ~out_name ~body ()] builds and validates a
    definition.  Validation rejects: empty or duplicate axes, no spatial axis,
    body variables that are not axes, accesses to undeclared tensors, rank
    mismatches, and accesses whose bounding region (over the full iteration
    domain) exceeds the declared tensor shape.  [scale] is an epilogue
    multiplier applied after reduction (e.g. 1/F² for average pooling).

    [epilogue] is an optional post-reduction expression evaluated once per
    output element, over the spatial axes only; inside it a read of
    [out_name] at the spatial axes in declaration order denotes the reduced
    and scaled accumulator.  Extra tensors it reads must be declared in
    [inputs].  Validation additionally rejects epilogues that use reduce
    variables, read [out_name] at non-identity coordinates, or access
    undeclared/out-of-bounds operands. *)
val v :
  name:string ->
  axes:Axis.t list ->
  inputs:input list ->
  out_name:string ->
  ?out_dtype:Dtype.t ->
  ?init:float ->
  ?combine:combine ->
  ?scale:float ->
  ?epilogue:Expr.t ->
  body:Expr.t ->
  unit ->
  t

val name : t -> string
val axes : t -> Axis.t list
val inputs : t -> input list
val out_name : t -> string
val out_dtype : t -> Dtype.t
val init : t -> float
val body : t -> Expr.t
val combine : t -> combine
val scale : t -> float
val epilogue : t -> Expr.t option
val spatial_axes : t -> Axis.t list
val reduce_axes : t -> Axis.t list

(** Extents of the spatial axes, i.e. the output tensor shape. *)
val output_shape : t -> int list

(** Product of the spatial extents — number of output elements. *)
val output_points : t -> int

(** Product of all axis extents. *)
val domain_points : t -> int

(** Tensor reads the epilogue performs beyond the body, excluding the
    accumulator read of [out_name] (which never touches memory). *)
val epilogue_accesses : t -> Access.t list

(** Total FLOPs: domain points × (body FLOPs + 1 combine when reducing),
    plus output points × epilogue FLOPs; yields the usual 2·M·N·K for
    GEMM. *)
val total_flops : t -> int

val input_bytes : t -> int
val output_bytes : t -> int
val pp : t Fmt.t

(** Full structural 64-bit hash of the definition (axes, inputs, body,
    epilogue, reduction seed).  Unlike [Hashtbl.hash] it walks every node;
    unlike printing it does not depend on printer output.  Never 0. *)
val fingerprint : t -> int64

(** Extent-free structural hash of the epilogue expression alone ([None]
    without one) — the fused-tail marker in structured cache keys. *)
val epilogue_fingerprint : t -> int64 option

(** [fuse_epilogue anchor ~fed_input consumer] composes a pointwise
    [consumer] into [anchor]'s epilogue: the consumer's read of [fed_input]
    becomes the anchor's accumulator (or its existing epilogue when
    chaining), its remaining operands are merged into the anchor's inputs
    (renamed on collision), and its spatial axes are rewritten onto the
    anchor's.  Returns the fused compute plus the operand rename map
    (consumer input name → fused input name), or [Error (code, msg)] with a
    stable [GSR-F*] refusal code: F01 reduction consumer, F02 shape
    mismatch, F03 non-pointwise consumption, F04 non-identity reduction
    seed, F05 dtype mismatch, F06 consumer already fused. *)
val fuse_epilogue :
  t ->
  fed_input:string ->
  t ->
  (t * (string * string) list, string * string) result
