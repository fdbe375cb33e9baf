(* Cross-library integration tests: the paper's headline relations asserted
   end-to-end on small, fast instances. *)

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)

(* The central claim: graph construction beats tree construction on average
   and never loses by more than small-operator noise (tiny kernels are
   launch-overhead dominated, where the two can tie within microseconds). *)
let test_gensor_beats_roller () =
  let ratios =
    List.map
      (fun (name, op) ->
        let compute = Ops.Op.compute op in
        let gensor = Gensor.Optimizer.optimize ~hw compute in
        let roller = Roller.construct ~hw compute in
        let g = Costmodel.Metrics.score gensor.Gensor.Optimizer.metrics in
        let r = Costmodel.Metrics.score roller.Roller.metrics in
        if g < r *. 0.90 then
          Alcotest.failf "%s: gensor (%.3g) well below roller (%.3g)" name g r;
        if g > r *. 8.0 then
          Alcotest.failf "%s: implausible gap gensor %.3g vs roller %.3g" name
            g r;
        g /. r)
      [ ("gemm", Ops.Matmul.gemm ~m:1024 ~n:1024 ~k:256 ());
        ("conv",
         Ops.Conv.conv2d ~batch:8 ~in_channels:32 ~out_channels:32 ~height:28
           ~width:28 ~kernel:3 ~stride:1 ());
        ("gemv", Ops.Matmul.gemv ~m:8192 ~n:1024 ()) ]
  in
  let mean =
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
  in
  check_bool "gensor better on average" true (mean >= 1.0)

(* Runs a schedule on the compiled VM: it must write every output element
   exactly once and reproduce the reference bit for bit. *)
let check_schedule name etir inputs expected =
  let result = Exec.Compiled.run etir inputs in
  if not (Exec.Scheduled.coverage_exact result) then
    Alcotest.failf "%s: coverage broken" name;
  match
    Exec.Tensor.first_bit_mismatch expected result.Exec.Scheduled.output
  with
  | None -> ()
  | Some (at, e, g) ->
    Alcotest.failf "%s: diverges at [%a]: reference %h, compiled %h" name
      Fmt.(list ~sep:comma int)
      at e g

(* Gensor's chosen schedule must compute the right answer. *)
let test_optimized_schedules_are_correct () =
  List.iter
    (fun op ->
      let compute = Ops.Op.compute op in
      let r = Gensor.Optimizer.optimize ~hw compute in
      let inputs = Exec.Reference.random_inputs compute in
      let expected = Exec.Reference.run compute inputs in
      check_schedule (Tensor_lang.Compute.name compute) r.Gensor.Optimizer.etir
        inputs expected)
    [ Ops.Matmul.gemm ~m:31 ~n:17 ~k:23 ();
      Ops.Conv.conv2d ~batch:2 ~in_channels:3 ~out_channels:5 ~height:11
        ~width:11 ~kernel:3 ~stride:2 ();
      Ops.Pool.avgpool2d ~batch:2 ~channels:4 ~height:8 ~width:8 ~window:2
        ~stride:2 () ]

(* Roller's and the vendor's schedules are correct too. *)
let test_baseline_schedules_are_correct () =
  let op = Ops.Matmul.gemm ~m:29 ~n:13 ~k:21 () in
  let compute = Ops.Op.compute op in
  let inputs = Exec.Reference.random_inputs compute in
  let expected = Exec.Reference.run compute inputs in
  let check_etir name etir = check_schedule name etir inputs expected in
  check_etir "roller" (Roller.construct ~hw compute).Roller.etir;
  check_etir "cublas" (Vendor.Cublas.compile ~hw op).Vendor.Cublas.etir;
  let config = { Ansor.Search.default_config with Ansor.Search.n_trials = 60 } in
  check_etir "ansor" (Ansor.Search.search ~config ~hw compute).Ansor.Search.etir

(* Full pipeline: optimise, emit code, check the launch covers the domain. *)
let test_pipeline_to_codegen () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:512 ~n:256 ~k:128 ()) in
  let r = Gensor.Optimizer.optimize ~hw compute in
  let launch = Codegen.Launch.of_etir r.Gensor.Optimizer.etir in
  check_bool "grid covers the output" true
    (Codegen.Launch.total_blocks launch
    = Sched.Etir.grid_blocks r.Gensor.Optimizer.etir);
  let src = Codegen.Cuda.emit r.Gensor.Optimizer.etir in
  check_bool "kernel emitted" true (String.length src > 200)

(* Both device presets work end to end, and the edge device is slower. *)
let test_both_devices () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:512 ~n:512 ~k:256 ()) in
  let cloud = Gensor.Optimizer.optimize ~hw compute in
  let edge =
    Gensor.Optimizer.optimize ~hw:Hardware.Presets.orin_nano compute
  in
  check_bool "edge slower than cloud" true
    (edge.Gensor.Optimizer.metrics.Costmodel.Metrics.exec_time_s
    > cloud.Gensor.Optimizer.metrics.Costmodel.Metrics.exec_time_s)

(* Determinism across the whole standard method set. *)
let test_pipeline_deterministic () =
  let op = Ops.Matmul.gemm ~m:256 ~n:128 ~k:64 () in
  List.iter
    (fun make ->
      let m1 = make () and m2 = make () in
      let a = m1.Pipeline.Methods.compile ~hw op in
      let b = m2.Pipeline.Methods.compile ~hw op in
      if not (Sched.Etir.equal a.Pipeline.Methods.etir b.Pipeline.Methods.etir)
      then Alcotest.failf "%s not deterministic" m1.Pipeline.Methods.name)
    [ (fun () -> Pipeline.Methods.gensor ());
      (fun () -> Pipeline.Methods.roller ());
      (fun () -> Pipeline.Methods.ansor ~n_trials:80 ());
      (fun () -> Pipeline.Methods.cublas ()) ]

(* Failure injection: methods must reject mismatched devices cleanly. *)
let test_mismatched_levels_rejected () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:8 ~n:8 ~k:8 ()) in
  let etir = Sched.Etir.create ~num_levels:3 compute in
  (try
     ignore (Costmodel.Model.evaluate ~hw etir);
     Alcotest.fail "mismatched hierarchy accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Costmodel.Mem_check.check etir ~hw);
    Alcotest.fail "mismatched hierarchy accepted by mem check"
  with Invalid_argument _ -> ()

(* Golden outputs of the gensor method: the exact schedule signature and
   model score of five ops, recorded at a fixed seed.  Any change to the
   search that moves a schedule or a score shows up here; a change meant to
   leave outputs alone must pass unchanged.  Scores are compared exactly via
   their hex spelling.  The two network kernels are compile-cold's: BERT-small's
   fused [ffn_up+relu] (a GEMM with an epilogue) and GPT-2's [lm_head], whose
   wide vocabulary axis gives many tied scores. *)
let golden_ops =
  let table label () =
    (Option.get (Workloads.Table_iv.find label)).Workloads.Table_iv.op ()
  in
  let kernel graph name () =
    let fused = (Dnn.Fusion.fuse (graph ())).Dnn.Fusion.graph in
    match
      List.find_opt
        (fun n -> Ops.Op.name n.Dnn.Graph.op = name)
        (Dnn.Graph.nodes fused)
    with
    | Some n -> n.Dnn.Graph.op
    | None -> Alcotest.failf "no fused kernel named %s" name
  in
  [ ("M1", table "M1");
    ("C1", table "C1");
    ("BMM", fun () -> Ops.Matmul.batch_matmul ~batch:12 ~m:128 ~n:128 ~k:64 ());
    ("ffn_up+relu",
     kernel (Dnn.Transformer.bert_small_graph ~batch:8 ~seq:128) "ffn_up+relu");
    ("lm_head", kernel (Dnn.Transformer.gpt2_graph ~batch:8 ~seq:128) "lm_head")
  ]

let golden =
  [ ("rtx4090", "M1", "gemm|L2@0|s:8x8;128x256;4096x4096|r:4;1;16|v:8x8",
     "0x1.950729c9f2519p+45");
    ("rtx4090", "C1",
     "conv2d|L2@0|s:1x4x14x1;4x128x7x4;32x256x14x14|r:1x3x1;1x1x3;4x1x3|v:1x2x4x1",
     "0x1.874ba5a306078p+45");
    ("rtx4090", "BMM", "bmm|L2@0|s:1x1x8;4x32x32;2x128x128|r:8;2;2|v:1x1x8",
     "0x1.21dc1093e11b5p+42");
    ("orin", "M1", "gemm|L2@0|s:16x8;128x128;512x512|r:1;2;8|v:16x8",
     "0x1.b2b9ccaebec9bp+39");
    ("orin", "C1",
     "conv2d|L2@0|s:4x8x1x2;8x128x14x1;8x256x1x7|r:1x1x3;4x3x1;16x3x1|v:2x4x1x2",
     "0x1.b29e1570b5a26p+39");
    ("orin", "BMM", "bmm|L2@0|s:1x8x8;1x128x128;1x32x128|r:4;1;32|v:1x8x8",
     "0x1.18f221d2e850fp+39");
    ("rtx4090", "ffn_up+relu",
     "ffn_up+relu|L2@0|s:4x8;128x128;1024x2048|r:8;1;16|v:1x8",
     "0x1.2815fb84312eap+45");
    ("rtx4090", "lm_head", "lm_head|L2@0|s:8x8;128x64;1024x8192|r:2;1;64|v:4x8",
     "0x1.7c792e03a2974p+45") ]

let test_golden_schedules () =
  let device = function
    | "rtx4090" -> Hardware.Presets.rtx4090
    | _ -> Hardware.Presets.orin_nano
  in
  List.iter
    (fun (dev, label, signature, score) ->
      let method_ = Pipeline.Methods.gensor () in
      let out =
        method_.Pipeline.Methods.compile ~hw:(device dev)
          ((List.assoc label golden_ops) ())
      in
      let got_sig = Sched.Etir.signature out.Pipeline.Methods.etir in
      let got_score =
        Printf.sprintf "%h" (Costmodel.Metrics.score out.Pipeline.Methods.metrics)
      in
      if got_sig <> signature || got_score <> score then
        Alcotest.failf "%s/%s: got (%S, %S), want (%S, %S)" dev label got_sig
          got_score signature score)
    golden

let () =
  Alcotest.run "integration"
    [ ("headline",
       [ Alcotest.test_case "gensor >= roller" `Slow test_gensor_beats_roller;
         Alcotest.test_case "optimised schedules correct" `Slow
           test_optimized_schedules_are_correct;
         Alcotest.test_case "baseline schedules correct" `Quick
           test_baseline_schedules_are_correct ]);
      ("pipeline",
       [ Alcotest.test_case "codegen round trip" `Quick test_pipeline_to_codegen;
         Alcotest.test_case "both devices" `Quick test_both_devices;
         Alcotest.test_case "determinism" `Quick test_pipeline_deterministic;
         Alcotest.test_case "mismatched hierarchy rejected" `Quick
           test_mismatched_levels_rejected ]);
      ("golden",
       [ Alcotest.test_case "schedules and scores" `Quick
           test_golden_schedules ]) ]
