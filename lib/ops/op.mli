(** Operators: a compute definition tagged with its operator class.

    The class drives baseline behaviour (vendor template banks are per-class)
    and reporting labels; all scheduling works on the underlying
    {!Tensor_lang.Compute.t}. *)

type kind =
  | Gemm
  | Gemv
  | Batch_matmul
  | Conv2d
  | Depthwise_conv2d
  | Avgpool2d
  | Maxpool2d
  | Elementwise

type t

val v : kind:kind -> compute:Tensor_lang.Compute.t -> t
val kind : t -> kind
val compute : t -> Tensor_lang.Compute.t
val name : t -> string

(** Total FLOPs of one execution. *)
val flops : t -> int

val kind_to_string : kind -> string

(** Epilogue capability flags for graph-level fusion: anchors (matmul/conv
    classes) keep their own kernel and absorb pointwise tails; elementwise
    ops are the tails.  Pools are neither. *)
val is_fusion_anchor : t -> bool

val is_epilogue : t -> bool

(** [fuse_epilogue anchor ~fed_input consumer] folds a pointwise consumer
    into the anchor's compute via {!Tensor_lang.Compute.fuse_epilogue},
    keeping the anchor's kind.  Returns the fused op plus the operand
    rename map, or a stable [GSR-F*] refusal. *)
val fuse_epilogue :
  t ->
  fed_input:string ->
  t ->
  (t * (string * string) list, string * string) result

val pp : t Fmt.t
