type kind =
  | Gemm
  | Gemv
  | Batch_matmul
  | Conv2d
  | Depthwise_conv2d
  | Avgpool2d
  | Maxpool2d
  | Elementwise

type t = { kind : kind; compute : Tensor_lang.Compute.t }

let v ~kind ~compute = { kind; compute }
let kind t = t.kind
let compute t = t.compute
let name t = Tensor_lang.Compute.name t.compute
let flops t = Tensor_lang.Compute.total_flops t.compute

let kind_to_string = function
  | Gemm -> "gemm"
  | Gemv -> "gemv"
  | Batch_matmul -> "batch_matmul"
  | Conv2d -> "conv2d"
  | Depthwise_conv2d -> "depthwise_conv2d"
  | Avgpool2d -> "avgpool2d"
  | Maxpool2d -> "maxpool2d"
  | Elementwise -> "elementwise"

(* Epilogue capability flags for graph-level fusion: anchors keep their own
   kernel and absorb pointwise tails; every matmul/conv class qualifies.
   Pooling reduces over a window, so a pool is never an epilogue, and we do
   not anchor on pools either (their consumers in real nets are convs, not
   pointwise tails). *)
let is_fusion_anchor t =
  match t.kind with
  | Gemm | Gemv | Batch_matmul | Conv2d | Depthwise_conv2d -> true
  | Avgpool2d | Maxpool2d | Elementwise -> false

let is_epilogue t = t.kind = Elementwise

let fuse_epilogue anchor ~fed_input consumer =
  match
    Tensor_lang.Compute.fuse_epilogue anchor.compute ~fed_input
      consumer.compute
  with
  | Ok (compute, renames) -> Ok ({ anchor with compute }, renames)
  | Error _ as e -> e

let pp ppf t =
  Fmt.pf ppf "%s(%a)" (kind_to_string t.kind) Tensor_lang.Compute.pp t.compute
