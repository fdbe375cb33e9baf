(* Graph IR, epilogue fusion, memory planning and graph scheduling.

   The QCheck property is the load-bearing one: folding a pointwise
   consumer into an anchor's epilogue must be bit-identical to running the
   two ops separately through the reference executor — fusion changes the
   launch structure, never the numbers. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let hw = Hardware.Presets.rtx4090
let roller () = Pipeline.Methods.roller ()

(* ---------- builders ---------- *)

let test_builder_validation () =
  let b = Dnn.Graph.builder ~name:"t" ~batch:1 in
  let g0 = Dnn.Graph.add b "m1" (Ops.Matmul.gemm ~m:4 ~k:4 ~n:4 ()) in
  check_int "first id" 0 g0;
  (* edge onto an undeclared input *)
  (try
     ignore
       (Dnn.Graph.add b ~deps:[ ("Z", g0) ] "bad"
          (Ops.Elementwise.relu ~shape:[ 4; 4 ] ()));
     Alcotest.fail "undeclared input accepted"
   with Invalid_argument _ -> ());
  (* shape that cannot feed *)
  (try
     ignore
       (Dnn.Graph.add b ~deps:[ ("X", g0) ] "bad"
          (Ops.Elementwise.relu ~shape:[ 2; 2 ] ()));
     Alcotest.fail "shrinking producer accepted"
   with Invalid_argument _ -> ());
  (* unknown producer *)
  (try
     ignore
       (Dnn.Graph.add b ~deps:[ ("X", 7) ] "bad"
          (Ops.Elementwise.relu ~shape:[ 4; 4 ] ()));
     Alcotest.fail "unknown producer accepted"
   with Invalid_argument _ -> ());
  let g1 =
    Dnn.Graph.add b ~deps:[ ("X", g0) ] "r"
      (Ops.Elementwise.relu ~shape:[ 4; 4 ] ())
  in
  let g = Dnn.Graph.build b in
  check_int "size" 2 (Dnn.Graph.size g);
  check_int "edges" 1 (Dnn.Graph.edge_count g);
  Alcotest.(check (list (list int)))
    "levels" [ [ g0 ]; [ g1 ] ] (Dnn.Graph.levels g)

let test_network_graphs () =
  let cases =
    [ (Dnn.Resnet.resnet50_graph ~batch:8 (), 60, 60);
      (Dnn.Mobilenet.mobilenet_v2_graph ~batch:8 (), 90, 100);
      (Dnn.Transformer.bert_small_graph ~batch:8 (), 50, 45) ]
  in
  List.iter
    (fun (g, min_nodes, min_edges) ->
      let name = Dnn.Graph.name g in
      Alcotest.(check bool)
        (name ^ " nodes") true
        (Dnn.Graph.size g >= min_nodes);
      Alcotest.(check bool)
        (name ^ " edges") true
        (Dnn.Graph.edge_count g >= min_edges);
      Alcotest.(check bool) (name ^ " flops") true (Dnn.Graph.total_flops g > 0.0);
      (* every node reachable from the level decomposition exactly once *)
      let in_levels =
        List.fold_left (fun a l -> a + List.length l) 0 (Dnn.Graph.levels g)
      in
      check_int (name ^ " levels cover") (Dnn.Graph.size g) in_levels)
    cases

let test_of_model_fallback () =
  let g = Dnn.Graph.of_model (Dnn.Resnet.vgg16 ~batch:8 ()) in
  Alcotest.(check bool) "has edges" true (Dnn.Graph.edge_count g > 0);
  let m = Dnn.Resnet.vgg16 ~batch:8 () in
  check_int "op instances preserved"
    (Dnn.Model.total_op_instances m)
    (Dnn.Graph.total_op_instances g)

(* ---------- fusion ---------- *)

let small_conv_relu_graph () =
  let b = Dnn.Graph.builder ~name:"t" ~batch:1 in
  let c =
    Dnn.Graph.add b "conv"
      (Ops.Conv.conv2d ~batch:1 ~in_channels:4 ~out_channels:8 ~height:8
         ~width:8 ~kernel:3 ~stride:1 ~pad:1 ())
  in
  let r =
    Dnn.Graph.add b ~deps:[ ("X", c) ] "relu"
      (Ops.Elementwise.relu ~shape:[ 1; 8; 8; 8 ] ())
  in
  (Dnn.Graph.build b, c, r)

let test_fuse_conv_relu () =
  let g, _, _ = small_conv_relu_graph () in
  let r = Dnn.Fusion.fuse g in
  check_int "one node left" 1 (Dnn.Graph.size r.Dnn.Fusion.graph);
  check_int "one group" 1 (List.length r.Dnn.Fusion.groups);
  check_int "no refusals" 0 (List.length r.Dnn.Fusion.refused);
  let n = Dnn.Graph.node r.Dnn.Fusion.graph 0 in
  Alcotest.(check (list string)) "fused_from" [ "relu" ] n.Dnn.Graph.fused_from;
  Alcotest.(check bool) "epilogue present" true
    (Tensor_lang.Compute.epilogue (Ops.Op.compute n.Dnn.Graph.op) <> None)

let test_refuse_reduction_consumer () =
  let b = Dnn.Graph.builder ~name:"t" ~batch:1 in
  let c =
    Dnn.Graph.add b "conv"
      (Ops.Conv.conv2d ~batch:1 ~in_channels:4 ~out_channels:8 ~height:8
         ~width:8 ~kernel:3 ~stride:1 ~pad:1 ())
  in
  let p =
    Dnn.Graph.add b ~deps:[ ("I", c) ] "pool"
      (Ops.Pool.maxpool2d ~batch:1 ~channels:8 ~height:8 ~width:8 ~window:2
         ~stride:2 ())
  in
  let g = Dnn.Graph.build b in
  (match Dnn.Fusion.try_fuse g ~anchor:c ~consumer:p with
  | Ok _ -> Alcotest.fail "reduction consumer fused"
  | Error (code, _) -> check_string "stable code" "GSR-F01" code);
  (* the full pass leaves the graph intact and records nothing folded *)
  let r = Dnn.Fusion.fuse g in
  check_int "nothing folded" 0 (List.length r.Dnn.Fusion.groups);
  check_int "both kernels kept" 2 (Dnn.Graph.size r.Dnn.Fusion.graph)

let test_refuse_multi_consumer () =
  let b = Dnn.Graph.builder ~name:"t" ~batch:1 in
  let m = Dnn.Graph.add b "mm" (Ops.Matmul.gemm ~m:4 ~k:4 ~n:4 ()) in
  let r1 =
    Dnn.Graph.add b ~deps:[ ("X", m) ] "r1"
      (Ops.Elementwise.relu ~shape:[ 4; 4 ] ())
  in
  let _r2 =
    Dnn.Graph.add b ~deps:[ ("X", m) ] "r2"
      (Ops.Elementwise.relu ~shape:[ 4; 4 ] ())
  in
  let g = Dnn.Graph.build b in
  (match Dnn.Fusion.try_fuse g ~anchor:m ~consumer:r1 with
  | Ok _ -> Alcotest.fail "multi-consumer anchor fused"
  | Error (code, _) -> check_string "stable code" "GSR-F07" code)

(* ---------- QCheck: fusion is semantics-preserving ---------- *)

(* Run [compute] on named inputs drawn from [pool] (falling back to
   deterministic randoms already in the pool by construction). *)
let run_with pool compute =
  let inputs =
    List.map
      (fun { Tensor_lang.Compute.in_name; _ } ->
        (in_name, List.assoc in_name pool))
      (Tensor_lang.Compute.inputs compute)
  in
  Exec.Reference.run compute inputs

(* One fusion step checked for bit-identity: fused(anchor, consumer) vs
   consumer(anchor(...)). *)
let check_fusion_identity ~seed anchor consumer ~fed =
  match Ops.Op.fuse_epilogue anchor ~fed_input:fed consumer with
  | Error (code, msg) -> Alcotest.fail (code ^ ": " ^ msg)
  | Ok (fused, renames) ->
    let fc = Ops.Op.compute fused in
    let pool = Exec.Reference.random_inputs ~seed fc in
    let fused_out = run_with pool fc in
    let anchor_out = run_with pool (Ops.Op.compute anchor) in
    let consumer_inputs =
      List.map
        (fun { Tensor_lang.Compute.in_name; _ } ->
          if String.equal in_name fed then (in_name, anchor_out)
          else
            let fused_name =
              Option.value ~default:in_name (List.assoc_opt in_name renames)
            in
            (in_name, List.assoc fused_name pool))
        (Tensor_lang.Compute.inputs (Ops.Op.compute consumer))
    in
    let ref_out =
      Exec.Reference.run (Ops.Op.compute consumer) consumer_inputs
    in
    let diff = Exec.Tensor.max_abs_diff fused_out ref_out in
    if diff <> 0.0 then
      Alcotest.failf "fused %s differs by %g" (Ops.Op.name fused) diff;
    fused

(* Anchor: small gemm; consumer: one of the pointwise tails.  Sizes stay
   tiny so the property runs hundreds of cases quickly. *)
let fusion_sound_prop =
  QCheck.Test.make ~count:200 ~name:"epilogue fusion is semantics-preserving"
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 0 4))
    (fun (m, k, n, which) ->
      let anchor = Ops.Matmul.gemm ~m ~k ~n () in
      let shape = [ m; n ] in
      let consumer =
        match which with
        | 0 -> Ops.Elementwise.relu ~shape ()
        | 1 -> Ops.Elementwise.add ~shape ()
        | 2 when n >= 1 && List.length shape >= 2 ->
          Ops.Elementwise.bias_add ~shape ()
        | 3 ->
          Ops.Elementwise.affine ~shape ~mul_const:0.5 ~add_const:(-1.25) ()
        | _ -> Ops.Elementwise.relu ~shape ()
      in
      let seed = (m * 1000) + (k * 100) + (n * 10) + which in
      let fused = check_fusion_identity ~seed anchor consumer ~fed:"X" in
      (* chain a second tail onto the already-fused anchor *)
      let relu2 = Ops.Elementwise.relu ~shape () in
      ignore (check_fusion_identity ~seed:(seed + 1) fused relu2 ~fed:"X");
      true)

(* Full-pass variant on a real multi-op graph: residual add + relu folded
   into a conv must leave the network function unchanged.  Cross-checked
   structurally (the fused graph recomputes the same FLOP total). *)
let test_fuse_preserves_flops () =
  List.iter
    (fun g ->
      let r = Dnn.Fusion.fuse g in
      let before = Dnn.Graph.total_flops g in
      let after = Dnn.Graph.total_flops r.Dnn.Fusion.graph in
      if Float.abs (before -. after) > 1e-6 *. before then
        Alcotest.failf "%s: flops %f -> %f" (Dnn.Graph.name g) before after)
    [ Dnn.Resnet.resnet50_graph ~batch:8 ();
      Dnn.Mobilenet.mobilenet_v2_graph ~batch:8 ();
      Dnn.Transformer.bert_small_graph ~batch:8 () ]

(* ---------- fused kernels through the scheduler and verifier ---------- *)

let test_fused_kernel_verifies () =
  let g, _, _ = small_conv_relu_graph () in
  let r = Dnn.Fusion.fuse g in
  let fused_op = (Dnn.Graph.node r.Dnn.Fusion.graph 0).Dnn.Graph.op in
  let method_ = roller () in
  let output = method_.Pipeline.Methods.compile ~hw fused_op in
  let diags = Verify.run output.Pipeline.Methods.etir ~hw in
  check_int "no error diagnostics" 0
    (Verify.Diagnostic.count Verify.Diagnostic.Error diags);
  (* the emitted kernel mentions the sanitised fused symbol *)
  let cuda = Codegen.Cuda.emit output.Pipeline.Methods.etir in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub hay i m = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "fused symbol in kernel" true
    (contains cuda (Codegen.Cuda.kernel_symbol (Ops.Op.compute fused_op)))

(* ---------- codec round-trip with an epilogue ---------- *)

let test_codec_epilogue_roundtrip () =
  let g, _, _ = small_conv_relu_graph () in
  let r = Dnn.Fusion.fuse g in
  let fc = Ops.Op.compute (Dnn.Graph.node r.Dnn.Fusion.graph 0).Dnn.Graph.op in
  let lines = Artifact.Compute_codec.encode fc in
  match Artifact.Compute_codec.decode (Artifact.Codec.cursor lines) with
  | Error e -> Alcotest.failf "decode: %s" (Artifact.Codec.error_to_string e)
  | Ok fc' ->
    Alcotest.(check bool) "epilogue survives" true
      (Tensor_lang.Compute.epilogue fc' <> None);
    Alcotest.(check int64) "fingerprint stable"
      (Tensor_lang.Compute.fingerprint fc)
      (Tensor_lang.Compute.fingerprint fc')

(* ---------- memory planner ---------- *)

let test_memplan () =
  let g = Dnn.Resnet.resnet50_graph ~batch:8 () in
  let plan = Dnn.Memplan.plan g in
  check_int "one range per node" (Dnn.Graph.size g)
    (List.length plan.Dnn.Memplan.ranges);
  Alcotest.(check bool) "peak positive" true (plan.Dnn.Memplan.peak_bytes > 0);
  Alcotest.(check bool) "peak <= total" true
    (plan.Dnn.Memplan.peak_bytes <= plan.Dnn.Memplan.total_bytes);
  Alcotest.(check bool) "arena >= peak" true
    (plan.Dnn.Memplan.arena_bytes >= plan.Dnn.Memplan.peak_bytes);
  Alcotest.(check bool) "reuse helps" true
    (Dnn.Memplan.reuse_factor plan > 1.0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "born <= dies" true
        (r.Dnn.Memplan.born <= r.Dnn.Memplan.dies))
    plan.Dnn.Memplan.ranges;
  (* fusion shrinks the intermediate footprint *)
  let fused = (Dnn.Fusion.fuse g).Dnn.Fusion.graph in
  let fplan = Dnn.Memplan.plan fused in
  Alcotest.(check bool) "fusion shrinks peak" true
    (fplan.Dnn.Memplan.peak_bytes <= plan.Dnn.Memplan.peak_bytes)

(* ---------- graph scheduling ---------- *)

let graph_report_key (r : Dnn.Runner.graph_report) =
  (* everything except wall-clock compile time, which is load-dependent *)
  ( r.Dnn.Runner.g_e2e_s, r.Dnn.Runner.g_critical_path_s,
    r.Dnn.Runner.g_compile_sim_s, r.Dnn.Runner.g_kernels,
    r.Dnn.Runner.g_nodes, r.Dnn.Runner.g_folded, r.Dnn.Runner.g_peak_bytes,
    r.Dnn.Runner.g_sched_levels )

let test_run_graph_deterministic () =
  let report jobs =
    Dnn.Runner.run_graph ~jobs ~hw (roller ())
      (Dnn.Transformer.bert_small_graph ~batch:8 ())
  in
  let r1 = report 1 and r4 = report 4 in
  if graph_report_key r1 <> graph_report_key r4 then
    Alcotest.fail "per-model latency report differs between jobs=1 and jobs=4"

let test_fused_beats_unfused () =
  List.iter
    (fun g ->
      let c = Dnn.Runner.compare_fusion ~jobs:2 ~hw (roller ()) g in
      let s = Dnn.Runner.fusion_speedup c in
      if s <= 1.0 then
        Alcotest.failf "%s: fusion speedup %.3f <= 1" (Dnn.Graph.name g) s;
      Alcotest.(check bool) "fused kernels fewer" true
        (c.Dnn.Runner.fc_fused.Dnn.Runner.g_kernels
        <= c.Dnn.Runner.fc_unfused.Dnn.Runner.g_kernels))
    [ Dnn.Resnet.resnet50_graph ~batch:8 ();
      Dnn.Transformer.bert_small_graph ~batch:8 () ]

(* ETIR keys must see the whole compute, not just its name and extents.
   The stride-2 depthwise kernels of this MobileNetV2 (distinct fused
   kernels 7 and 12) share name and axis extents with earlier kernels that
   read a differently shaped input; when the ETIR fingerprint aliased them,
   they came back carrying the other kernel's compute.  Compiling the
   distinct kernels in graph order in one process reproduces that sequence,
   so any state shared across kernels and keyed without the compute fails
   here. *)
let test_etir_keys_keep_computes_apart () =
  let g = Dnn.Mobilenet.mobilenet_v2_graph ~batch:1 ~width_mult:0.35 () in
  let seen = Hashtbl.create 32 in
  let kernels =
    List.filter_map
      (fun n ->
        let op = n.Dnn.Graph.op in
        let key = Dnn.Model.distinct_key op in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some op
        end)
      (Dnn.Graph.nodes (Dnn.Fusion.fuse g).Dnn.Fusion.graph)
  in
  let gensor = Pipeline.Methods.gensor () in
  List.iteri
    (fun i op ->
      if i <= 12 then begin
        let out = gensor.Pipeline.Methods.compile ~hw op in
        let fp = Tensor_lang.Compute.fingerprint in
        if fp (Sched.Etir.compute out.Pipeline.Methods.etir)
           <> fp (Ops.Op.compute op)
        then
          Alcotest.failf "kernel %d (%s) came back with another compute" i
            (Ops.Op.name op)
      end)
    kernels

let () =
  Alcotest.run "graph"
    [ ( "builder",
        [ Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "network graphs" `Quick test_network_graphs;
          Alcotest.test_case "of_model fallback" `Quick test_of_model_fallback
        ] );
      ( "fusion",
        [ Alcotest.test_case "conv+relu" `Quick test_fuse_conv_relu;
          Alcotest.test_case "refuse reduction consumer" `Quick
            test_refuse_reduction_consumer;
          Alcotest.test_case "refuse multi-consumer" `Quick
            test_refuse_multi_consumer;
          QCheck_alcotest.to_alcotest fusion_sound_prop;
          Alcotest.test_case "flops preserved" `Quick test_fuse_preserves_flops
        ] );
      ( "kernels",
        [ Alcotest.test_case "fused kernel verifies" `Quick
            test_fused_kernel_verifies;
          Alcotest.test_case "codec epilogue round-trip" `Quick
            test_codec_epilogue_roundtrip ] );
      ( "memplan", [ Alcotest.test_case "plan" `Quick test_memplan ] );
      ( "schedule",
        [ Alcotest.test_case "deterministic across jobs" `Quick
            test_run_graph_deterministic;
          Alcotest.test_case "fused beats unfused" `Quick
            test_fused_beats_unfused;
          Alcotest.test_case "etir keys keep computes apart" `Quick
            test_etir_keys_keep_computes_apart ] ) ]
