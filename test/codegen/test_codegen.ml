open Sched

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let scheduled_gemm () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:256 ~n:128 ~k:64 ()) in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_vthread e ~dim:1 2 in
  e

(* ---------- Launch ---------- *)

let test_launch_dims () =
  let launch = Codegen.Launch.of_etir (scheduled_gemm ()) in
  let gx, gy, gz = launch.Codegen.Launch.grid in
  (* grid: innermost dim (j: 128/16 = 8) on x, i: 256/32 = 8 on y. *)
  check_int "grid x" 8 gx;
  check_int "grid y" 8 gy;
  check_int "grid z" 1 gz;
  let bx, by, _ = launch.Codegen.Launch.block in
  check_int "block x (j: 16/4)" 4 bx;
  check_int "block y (i: 32/4)" 8 by;
  check_int "total blocks" 64 (Codegen.Launch.total_blocks launch);
  check_int "threads" 32 (Codegen.Launch.threads_per_block launch);
  check_int "smem bytes" (((32 * 8) + (8 * 16)) * 4) launch.Codegen.Launch.smem_bytes;
  check_int "vthreads" 2 launch.Codegen.Launch.vthreads_total

let test_launch_batch_collapse () =
  (* 4D conv grids fold leading dims into z. *)
  let compute =
    Ops.Op.compute
      (Ops.Conv.conv2d ~batch:4 ~in_channels:8 ~out_channels:16 ~height:12
         ~width:12 ~kernel:3 ~stride:1 ())
  in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:1 ~dim:2 5 in
  let e = Etir.with_stile e ~level:1 ~dim:3 10 in
  let launch = Codegen.Launch.of_etir e in
  let gx, gy, gz = launch.Codegen.Launch.grid in
  check_int "x from innermost" 1 gx;
  check_int "y from height" 2 gy;
  check_int "z folds batch and channels" (4 * 16) gz

(* ---------- Cuda emission ---------- *)

let test_emit_structure () =
  let e = scheduled_gemm () in
  let src = Codegen.Cuda.emit e in
  List.iter
    (fun needle ->
      if not (contains src needle) then
        Alcotest.failf "kernel source missing %S" needle)
    [ "__global__"; "__shared__ float smem_A"; "__shared__ float smem_B";
      "#pragma unroll"; "__syncthreads()"; "blockIdx.x"; "threadIdx.x";
      "vthread stripes"; "gemm_kernel"; "acc[" ];
  (* Braces balance. *)
  let count ch =
    String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 src
  in
  check_int "balanced braces" (count '{') (count '}')

let test_emit_host () =
  let e = scheduled_gemm () in
  let host = Codegen.Cuda.emit_host e in
  check_bool "grid declared" true (contains host "dim3 grid(8, 8, 1)");
  check_bool "kernel launched" true (contains host "gemm_kernel<<<")

let test_emit_optimized_kernels () =
  (* Emission works for whatever the optimiser produces, across op classes. *)
  List.iter
    (fun op ->
      let r = Gensor.Optimizer.optimize ~hw (Ops.Op.compute op) in
      let src = Codegen.Cuda.emit r.Gensor.Optimizer.etir in
      if not (contains src "__global__") then
        Alcotest.failf "no kernel for %s" (Ops.Op.kind_to_string (Ops.Op.kind op)))
    [ Ops.Matmul.gemv ~m:512 ~n:256 ();
      Ops.Pool.avgpool2d ~batch:2 ~channels:8 ~height:8 ~width:8 ~window:2
        ~stride:2 ();
      Ops.Elementwise.relu ~shape:[ 32; 64 ] () ]

(* Every statement [Kernel.iter] reports on line N prints on line N, and
   the shared and accumulator declarations sit on the lines the lint pass
   names. *)
let test_line_layout () =
  let module K = Codegen.Kernel in
  let check_kernel name (k : K.t) =
    let lines = Array.of_list (String.split_on_char '\n' (K.print k)) in
    let expect line needle =
      if not (contains lines.(line - 1) needle) then
        Alcotest.failf "%s: line %d %S lacks %S" name line lines.(line - 1) needle
    in
    List.iteri (fun i (t, _) -> expect (K.shared_line i) ("smem_" ^ t ^ "[")) k.shared;
    expect (K.acc_line k) "float acc[";
    K.iter k (fun ~line ~loops:_ stmt ->
        expect line
          (match stmt with
          | K.Loop ({ role = K.Unrolled; _ }, _) -> "#pragma unroll"
          | K.Loop (l, _) -> "for (int " ^ l.var ^ " ="
          | K.Comment c -> "// " ^ c
          | K.Stage t -> "smem_" ^ t ^ "[s] ="
          | K.Barrier -> "__syncthreads();"
          | K.Spatial_index { axis; _ } -> "const int " ^ axis ^ " ="
          | K.Reduce_index a -> "const int " ^ a ^ " ="
          | K.Accumulate _ -> "acc[0]"))
  in
  List.iter (fun (name, f) -> check_kernel name (Codegen.Cuda.lower (f ()))) Fixtures.all;
  List.iter
    (fun op ->
      let r = Gensor.Optimizer.optimize ~hw (Ops.Op.compute op) in
      check_kernel (Ops.Op.name op) (Codegen.Cuda.lower r.Gensor.Optimizer.etir))
    [ Ops.Matmul.batch_matmul ~batch:2 ~m:64 ~n:64 ~k:32 ();
      Ops.Conv.conv2d ~batch:2 ~in_channels:8 ~out_channels:8 ~height:8
        ~width:8 ~kernel:3 ~stride:1 () ]

let () =
  Alcotest.run "codegen"
    [ ("launch",
       [ Alcotest.test_case "dims" `Quick test_launch_dims;
         Alcotest.test_case "batch collapse" `Quick test_launch_batch_collapse ]);
      ("cuda",
       [ Alcotest.test_case "structure" `Quick test_emit_structure;
         Alcotest.test_case "host snippet" `Quick test_emit_host;
         Alcotest.test_case "optimised kernels emit" `Quick
           test_emit_optimized_kernels;
         Alcotest.test_case "line layout" `Quick test_line_layout ]) ]
