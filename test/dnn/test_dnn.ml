let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Model tables ---------- *)

let test_resnet50_flops () =
  (* Published ResNet-50 forward cost is ~4.1 GMACs per image at 224x224,
     i.e. ~8.2 GFLOPs with multiply and accumulate counted separately (our
     convention); the table omits only the tiny batch-norm terms. *)
  let model = Dnn.Resnet.resnet50 ~batch:8 () in
  let per_image = Dnn.Model.total_flops model /. 8.0 /. 1e9 in
  if per_image < 7.0 || per_image > 9.5 then
    Alcotest.failf "ResNet-50 per-image GFLOPs out of range: %.2f" per_image

let test_mobilenet_flops () =
  (* MobileNetV2 is ~0.6 GFLOPs (0.3 GMACs) per image. *)
  let model = Dnn.Mobilenet.mobilenet_v2 ~batch:4 () in
  let per_image = Dnn.Model.total_flops model /. 4.0 /. 1e9 in
  if per_image < 0.4 || per_image > 1.2 then
    Alcotest.failf "MobileNetV2 per-image GFLOPs out of range: %.2f" per_image

let test_width_multiplier_scales () =
  let flops mult =
    Dnn.Model.total_flops (Dnn.Mobilenet.mobilenet_v2 ~batch:1 ~width_mult:mult ())
  in
  check_bool "narrower is cheaper" true (flops 0.75 < flops 1.0);
  check_bool "wider is costlier" true (flops 1.25 > flops 1.0);
  check_int "channel rounding to 8" 24
    (Dnn.Mobilenet.scale_channels ~width_mult:0.75 32);
  check_int "floor at 8" 8 (Dnn.Mobilenet.scale_channels ~width_mult:0.1 32)

let test_vgg16_flops () =
  (* VGG-16 forward cost is ~15.5 GMACs per image, ~31 GFLOPs in our
     convention. *)
  let model = Dnn.Resnet.vgg16 ~batch:2 () in
  let per_image = Dnn.Model.total_flops model /. 2.0 /. 1e9 in
  if per_image < 26.0 || per_image > 36.0 then
    Alcotest.failf "VGG-16 per-image GFLOPs out of range: %.2f" per_image

let test_transformer_tables () =
  let bert = Dnn.Transformer.bert_small ~batch:2 ~seq:64 () in
  check_bool "bert has attention and ffn" true
    (List.exists
       (fun l -> l.Dnn.Model.layer_name = "bert.attn_scores")
       (Dnn.Model.layers bert)
    && List.exists
         (fun l -> l.Dnn.Model.layer_name = "bert.ffn_up")
         (Dnn.Model.layers bert));
  let gpt2 = Dnn.Transformer.gpt2 ~batch:1 ~seq:32 () in
  check_bool "gpt2 carries the LM head" true
    (List.exists
       (fun l -> l.Dnn.Model.layer_name = "gpt2.lm_head")
       (Dnn.Model.layers gpt2));
  (* 12 layers x (3 qkv + 1 out + 2 ffn) gemms + head = 73 gemm instances. *)
  let gemm_instances =
    List.fold_left
      (fun acc l ->
        match Ops.Op.kind l.Dnn.Model.op with
        | Ops.Op.Gemm -> acc + l.Dnn.Model.count
        | _ -> acc)
      0 (Dnn.Model.layers gpt2)
  in
  check_int "gpt2 gemm count" 73 gemm_instances

let test_distinct_ops_dedup () =
  let model = Dnn.Resnet.resnet50 ~batch:2 () in
  let distinct = List.length (Dnn.Model.distinct_ops model) in
  check_bool "fewer kernels than layer entries" true
    (distinct <= List.length (Dnn.Model.layers model));
  check_bool "still plenty of kernels" true (distinct > 10)

(* ---------- Runner ---------- *)

let run_flat model method_ =
  Dnn.Runner.run_graph ~fuse:false ~hw method_ (Dnn.Graph.of_model model)

let test_runner_aggregates () =
  let model = Dnn.Transformer.bert_small ~batch:2 ~seq:32 () in
  let report = run_flat model (Pipeline.Methods.roller ()) in
  check_bool "positive exec time" true (report.Dnn.Runner.g_e2e_s > 0.0);
  check_bool "kernel cache smaller than instances" true
    (report.Dnn.Runner.g_kernels <= Dnn.Model.total_op_instances model);
  check_bool "throughput consistent" true
    (Float.abs
       (report.Dnn.Runner.g_throughput -. (2.0 /. report.Dnn.Runner.g_e2e_s))
    < 1e-6)

let test_runner_pytorch_no_tuning () =
  let model = Dnn.Mobilenet.mobilenet_v2 ~batch:1 () in
  let report = run_flat model (Pipeline.Methods.pytorch ()) in
  Alcotest.(check (float 0.0)) "no optimisation time" 0.0
    report.Dnn.Runner.g_compile_sim_s;
  check_bool "positive exec" true (report.Dnn.Runner.g_e2e_s > 0.0)

(* The unfused lift of a layer table charges bit for bit the paper's
   per-layer sums: count x kernel time in table order, and each distinct
   operator's optimisation time once, at its first layer. *)
let test_runner_flat_sums () =
  let model = Dnn.Transformer.bert_small ~batch:2 ~seq:32 () in
  let layers = Dnn.Model.layers model in
  let check_bits msg expected actual =
    Alcotest.(check int64) msg (Int64.bits_of_float expected)
      (Int64.bits_of_float actual)
  in
  let per_layer time =
    List.fold_left
      (fun acc l ->
        acc +. (float_of_int l.Dnn.Model.count *. time l.Dnn.Model.op))
      0.0 layers
  in
  let roller = Pipeline.Methods.roller () in
  let compile op = roller.Pipeline.Methods.compile ~hw op in
  let report = run_flat model roller in
  check_bits "e2e = per-layer sum"
    (per_layer (fun op ->
         (compile op).Pipeline.Methods.metrics.Costmodel.Metrics.exec_time_s))
    report.Dnn.Runner.g_e2e_s;
  check_bits "opt time = first-occurrence sum"
    (List.fold_left
       (fun acc op -> acc +. Pipeline.Methods.simulated_opt_time (compile op))
       0.0 (Dnn.Model.distinct_ops model))
    report.Dnn.Runner.g_compile_sim_s;
  let torch = run_flat model (Pipeline.Methods.pytorch ()) in
  check_bits "pytorch e2e = per-layer eager sum"
    (per_layer (fun op -> Vendor.Pytorch.op_time_s ~hw op))
    torch.Dnn.Runner.g_e2e_s;
  check_bits "pytorch opt time" 0.0 torch.Dnn.Runner.g_compile_sim_s

(* ---------- Dynamic scenarios ---------- *)

let test_bert_dynamic_shapes () =
  let seqs = [ 32; 64 ] in
  let reports =
    Dnn.Dynamic.bert_per_shape ~hw (Pipeline.Methods.roller ()) ~batch:2 ~seqs
  in
  check_int "one report per shape" 2 (List.length reports);
  (* Longer sequences take longer. *)
  match reports with
  | [ short; long ] ->
    check_bool "seq=64 slower than seq=32" true
      (long.Dnn.Dynamic.exec_time_s > short.Dnn.Dynamic.exec_time_s)
  | _ -> Alcotest.fail "unexpected report count"

let test_dietcode_dispatch () =
  let seqs = [ 32; 64 ] in
  let reports =
    Dnn.Dynamic.bert_dietcode ~buckets:1 ~trials_per_bucket:30 ~hw ~batch:2
      ~seqs ()
  in
  check_int "one report per shape" 2 (List.length reports);
  List.iter
    (fun r ->
      check_bool "positive throughput" true (r.Dnn.Dynamic.throughput > 0.0))
    reports

let test_mobilenet_timeline () =
  let phases =
    [ { Dnn.Dynamic.width_mult = 1.0; images = 64 };
      { Dnn.Dynamic.width_mult = 0.75; images = 64 } ]
  in
  let tl =
    Dnn.Dynamic.mobilenet_timeline ~hw (Pipeline.Methods.roller ()) ~batch:32
      ~phases ()
  in
  check_int "one segment per phase" 2 (List.length tl.Dnn.Dynamic.segments);
  check_bool "total adds up" true
    (Float.abs
       (tl.Dnn.Dynamic.total_s
       -. List.fold_left
            (fun acc s -> acc +. s.Dnn.Dynamic.opt_s +. s.Dnn.Dynamic.infer_s)
            0.0 tl.Dnn.Dynamic.segments)
    < 1e-9)

let () =
  Alcotest.run "dnn"
    [ ("models",
       [ Alcotest.test_case "resnet50 flops" `Quick test_resnet50_flops;
         Alcotest.test_case "mobilenet flops" `Quick test_mobilenet_flops;
         Alcotest.test_case "vgg16 flops" `Quick test_vgg16_flops;
         Alcotest.test_case "width multiplier" `Quick
           test_width_multiplier_scales;
         Alcotest.test_case "transformer tables" `Quick test_transformer_tables;
         Alcotest.test_case "distinct op dedup" `Quick test_distinct_ops_dedup ]);
      ("runner",
       [ Alcotest.test_case "aggregation" `Quick test_runner_aggregates;
         Alcotest.test_case "pytorch baseline" `Quick
           test_runner_pytorch_no_tuning;
         Alcotest.test_case "flat sums" `Quick test_runner_flat_sums ]);
      ("dynamic",
       [ Alcotest.test_case "bert shapes" `Quick test_bert_dynamic_shapes;
         Alcotest.test_case "dietcode dispatch" `Quick test_dietcode_dispatch;
         Alcotest.test_case "mobilenet timeline" `Quick test_mobilenet_timeline
       ]) ]
