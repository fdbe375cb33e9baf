(* Scheduled ETIRs whose emitted kernel and host text are pinned under
   golden/: one per shape of the printer's output (plain and vthreaded
   GEMMs, a 4-D conv whose grid folds into blockIdx.z, a scaled GEMM with
   a fused epilogue, a max-combine pool and a reduce-free elementwise
   op). *)

open Tensor_lang
open Sched

(* The hand-checkable legal GEMM of the verifier tests: block 32x16,
   thread 4x4, reduce chunk 8 unrolled by 2. *)
let configured_gemm () =
  let e = Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m:256 ~n:256 ~k:256 ())) in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 2 in
  Etir.with_cur_level e 0

(* The codegen tests' GEMM: two vthread stripes on j. *)
let scheduled_gemm () =
  let e = Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m:256 ~n:128 ~k:64 ())) in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  Etir.with_vthread e ~dim:1 2

(* Four spatial dims: batch and channel blocks share blockIdx.z and
   threadIdx.z through [/ stride % extent]. *)
let conv4d () =
  let e =
    Etir.create
      (Ops.Op.compute
         (Ops.Conv.conv2d ~batch:4 ~in_channels:8 ~out_channels:16 ~height:12
            ~width:12 ~kernel:3 ~stride:1 ()))
  in
  let e = Etir.with_stile e ~level:1 ~dim:1 4 in
  let e = Etir.with_stile e ~level:1 ~dim:2 5 in
  let e = Etir.with_stile e ~level:1 ~dim:3 10 in
  let e = Etir.with_stile e ~level:0 ~dim:1 2 in
  let e = Etir.with_stile e ~level:0 ~dim:3 5 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 4 in
  e

(* relu(0.125 * A.B + bias): a scaled accumulator inside a fused tail. *)
let fused_epilogue () =
  let m = 64 and n = 32 and k = 16 in
  let anchor =
    Compute.v ~name:"scores"
      ~axes:[ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ]
      ~inputs:
        [ { Compute.in_name = "A"; in_shape = [ m; k ]; in_dtype = Dtype.F32 };
          { Compute.in_name = "B"; in_shape = [ k; n ]; in_dtype = Dtype.F32 } ]
      ~out_name:"C" ~scale:0.125
      ~body:
        (Expr.mul
           (Expr.read "A" [ Index.var "i"; Index.var "k" ])
           (Expr.read "B" [ Index.var "k"; Index.var "j" ]))
      ()
  in
  let tail =
    Compute.v ~name:"bias_relu"
      ~axes:[ Axis.spatial "i" m; Axis.spatial "j" n ]
      ~inputs:
        [ { Compute.in_name = "X"; in_shape = [ m; n ]; in_dtype = Dtype.F32 };
          { Compute.in_name = "bias"; in_shape = [ n ]; in_dtype = Dtype.F32 } ]
      ~out_name:"Y"
      ~body:
        (Expr.max_
           (Expr.add
              (Expr.read "X" [ Index.var "i"; Index.var "j" ])
              (Expr.read "bias" [ Index.var "j" ]))
           (Expr.imm 0.0))
      ()
  in
  let fused =
    match Compute.fuse_epilogue anchor ~fed_input:"X" tail with
    | Ok (c, _) -> c
    | Error (code, msg) -> failwith (code ^ ": " ^ msg)
  in
  let e = Etir.create fused in
  let e = Etir.with_stile e ~level:1 ~dim:0 16 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 2 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  Etir.with_rtile e ~level:0 ~dim:0 4

(* Max-combine reduction: the accumulator starts at -inf. *)
let maxpool () =
  let e =
    Etir.create
      (Ops.Op.compute
         (Ops.Pool.maxpool2d ~batch:2 ~channels:8 ~height:8 ~width:8 ~window:2
            ~stride:2 ()))
  in
  let e = Etir.with_stile e ~level:1 ~dim:2 2 in
  let e = Etir.with_stile e ~level:1 ~dim:3 4 in
  Etir.with_stile e ~level:0 ~dim:3 2

(* No reduce axis: no chunk loop, no staging, no barrier. *)
let elementwise () =
  let e = Etir.create (Ops.Op.compute (Ops.Elementwise.relu ~shape:[ 32; 64 ] ())) in
  let e = Etir.with_stile e ~level:1 ~dim:0 8 in
  let e = Etir.with_stile e ~level:1 ~dim:1 32 in
  Etir.with_stile e ~level:0 ~dim:1 4

let all =
  [ ("configured_gemm", configured_gemm);
    ("scheduled_gemm", scheduled_gemm);
    ("conv4d", conv4d);
    ("fused_epilogue", fused_epilogue);
    ("maxpool", maxpool);
    ("elementwise", elementwise) ]
