let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gemm ?(m = 256) ?(n = 256) ?(k = 128) () =
  Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ())

(* ---------- Roller ---------- *)

let test_roller_legal_and_deterministic () =
  let a = Roller.construct ~hw (gemm ()) in
  let b = Roller.construct ~hw (gemm ()) in
  check_bool "launchable" true (Costmodel.Mem_check.ok a.Roller.etir ~hw);
  check_bool "deterministic" true (Sched.Etir.equal a.Roller.etir b.Roller.etir);
  check_bool "candidates examined" true (a.Roller.candidates_examined > 0)

let test_roller_no_vthreads () =
  (* Tree construction never sets virtual threads — the Table VI premise. *)
  let r = Roller.construct ~hw (gemm ()) in
  let etir = r.Roller.etir in
  for dim = 0 to Sched.Etir.num_spatial etir - 1 do
    check_int "no vthreads" 1 (Sched.Etir.vthread etir ~dim)
  done

let test_roller_all_op_classes () =
  List.iter
    (fun op ->
      let r = Roller.construct ~hw (Ops.Op.compute op) in
      if not (Costmodel.Mem_check.ok r.Roller.etir ~hw) then
        Alcotest.failf "roller produced an unlaunchable %s"
          (Ops.Op.kind_to_string (Ops.Op.kind op)))
    [ Ops.Matmul.gemv ~m:2048 ~n:2048 ();
      Ops.Conv.conv2d ~batch:4 ~in_channels:16 ~out_channels:16 ~height:14
        ~width:14 ~kernel:3 ~stride:1 ();
      Ops.Pool.avgpool2d ~batch:4 ~channels:16 ~height:16 ~width:16 ~window:2
        ~stride:2 ();
      Ops.Elementwise.relu ~shape:[ 64; 512 ] () ]

(* ---------- Ansor ---------- *)

let test_ansor_trial_budget () =
  let config = { Ansor.Search.default_config with Ansor.Search.n_trials = 150 } in
  let r = Ansor.Search.search ~config ~hw (gemm ()) in
  check_bool "respects the budget" true (r.Ansor.Search.trials >= 150);
  check_bool "not far past it" true (r.Ansor.Search.trials < 150 + 10);
  check_bool "launchable" true (Costmodel.Mem_check.ok r.Ansor.Search.etir ~hw)

let test_ansor_improves_with_budget () =
  let score trials =
    let config =
      { Ansor.Search.default_config with Ansor.Search.n_trials = trials }
    in
    Costmodel.Metrics.score
      (Ansor.Search.search ~config ~hw (gemm ~m:1024 ~n:1024 ~k:512 ()))
        .Ansor.Search.metrics
  in
  check_bool "more trials never hurt the incumbent" true
    (score 1200 >= score 120)

let test_ansor_deterministic () =
  let config = { Ansor.Search.default_config with Ansor.Search.n_trials = 100 } in
  let a = Ansor.Search.search ~config ~hw (gemm ()) in
  let b = Ansor.Search.search ~config ~hw (gemm ()) in
  check_bool "same seed, same result" true
    (Sched.Etir.equal a.Ansor.Search.etir b.Ansor.Search.etir)

(* ---------- Vendor ---------- *)

let test_cublas_balanced_strength () =
  (* On a large balanced GEMM the vendor oracle must be near the best any
     method finds; on a heavily unbalanced one it degrades. *)
  let balanced = Ops.Matmul.gemm ~m:4096 ~n:4096 ~k:4096 () in
  let unbalanced = Ops.Matmul.gemm ~m:65536 ~n:4 ~k:1024 () in
  let tflops op =
    Costmodel.Metrics.tflops (Vendor.Cublas.compile ~hw op).Vendor.Cublas.metrics
  in
  check_bool "balanced fast" true (tflops balanced > 20.0);
  check_bool "unbalanced much slower" true
    (tflops unbalanced < tflops balanced /. 4.0)

let test_cublas_launchable_everywhere () =
  List.iter
    (fun op ->
      let r = Vendor.Cublas.compile ~hw op in
      if not (Costmodel.Mem_check.ok r.Vendor.Cublas.etir ~hw) then
        Alcotest.failf "vendor kernel unlaunchable for %s"
          (Ops.Op.kind_to_string (Ops.Op.kind op)))
    [ Ops.Matmul.gemm ~m:128 ~n:128 ~k:64 ();
      Ops.Matmul.gemv ~m:4096 ~n:512 ();
      Ops.Matmul.batch_matmul ~batch:8 ~m:64 ~n:64 ~k:32 ();
      Ops.Conv.conv2d ~batch:2 ~in_channels:8 ~out_channels:8 ~height:16
        ~width:16 ~kernel:3 ~stride:1 ();
      Ops.Pool.maxpool2d ~batch:2 ~channels:8 ~height:8 ~width:8 ~window:2
        ~stride:2 () ]

let test_pytorch_slower_than_vendor () =
  let op = Ops.Matmul.gemm ~m:512 ~n:512 ~k:512 () in
  let vendor = (Vendor.Cublas.compile ~hw op).Vendor.Cublas.metrics in
  check_bool "eager adds overhead" true
    (Vendor.Pytorch.op_time_s ~hw op
    > vendor.Costmodel.Metrics.exec_time_s)

let test_dietcode_family () =
  let family =
    List.map
      (fun seq -> Ops.Op.compute (Ops.Matmul.gemm ~m:(seq * 8) ~n:512 ~k:512 ()))
      [ 16; 32; 64; 128 ]
  in
  let r = Vendor.Dietcode.tune ~buckets:2 ~trials_per_bucket:50 ~hw family in
  check_int "one dispatch per shape" (List.length family)
    (List.length r.Vendor.Dietcode.per_shape);
  check_bool "tuning accounted" true (r.Vendor.Dietcode.tuning_trials > 0);
  List.iter
    (fun (_, etir, metrics) ->
      check_bool "dispatched kernel launchable" true
        (Costmodel.Mem_check.ok etir ~hw);
      check_bool "positive score" true (Costmodel.Metrics.score metrics > 0.0))
    r.Vendor.Dietcode.per_shape;
  Alcotest.check_raises "empty family rejected"
    (Invalid_argument "Dietcode.tune: empty shape family") (fun () ->
      ignore (Vendor.Dietcode.tune ~hw []))

(* ---------- Pipeline methods ---------- *)

let test_methods_uniform_interface () =
  let op = Ops.Matmul.gemm ~m:256 ~n:256 ~k:64 () in
  List.iter
    (fun m ->
      let out = m.Pipeline.Methods.compile ~hw op in
      if Costmodel.Metrics.score out.Pipeline.Methods.metrics <= 0.0 then
        Alcotest.failf "%s returned a non-positive score" m.Pipeline.Methods.name;
      if Pipeline.Methods.simulated_opt_time out < 0.0 then
        Alcotest.failf "%s has negative simulated time" m.Pipeline.Methods.name)
    (Pipeline.Methods.standard ())

let test_methods_opt_time_ordering () =
  (* The compilation-time story of Fig. 8: vendor ~ 0 < Roller < Gensor <<
     Ansor. *)
  let op = Ops.Matmul.gemm ~m:1024 ~n:1024 ~k:512 () in
  let sim m =
    Pipeline.Methods.simulated_opt_time (m.Pipeline.Methods.compile ~hw op)
  in
  let roller = sim (Pipeline.Methods.roller ()) in
  let gensor = sim (Pipeline.Methods.gensor ()) in
  let ansor = sim (Pipeline.Methods.ansor ()) in
  check_bool "roller < gensor" true (roller < gensor);
  check_bool "gensor << ansor" true (gensor *. 10.0 < ansor)

let () =
  Alcotest.run "baselines"
    [ ("roller",
       [ Alcotest.test_case "legal and deterministic" `Quick
           test_roller_legal_and_deterministic;
         Alcotest.test_case "never uses vthreads" `Quick test_roller_no_vthreads;
         Alcotest.test_case "all op classes" `Quick test_roller_all_op_classes ]);
      ("ansor",
       [ Alcotest.test_case "trial budget" `Quick test_ansor_trial_budget;
         Alcotest.test_case "improves with budget" `Slow
           test_ansor_improves_with_budget;
         Alcotest.test_case "deterministic" `Quick test_ansor_deterministic ]);
      ("vendor",
       [ Alcotest.test_case "balanced strength, unbalanced weakness" `Quick
           test_cublas_balanced_strength;
         Alcotest.test_case "launchable everywhere" `Quick
           test_cublas_launchable_everywhere;
         Alcotest.test_case "pytorch slower than vendor" `Quick
           test_pytorch_slower_than_vendor;
         Alcotest.test_case "dietcode shape family" `Quick test_dietcode_family ]);
      ("pipeline",
       [ Alcotest.test_case "uniform interface" `Quick
           test_methods_uniform_interface;
         Alcotest.test_case "opt-time ordering" `Quick
           test_methods_opt_time_ordering ]) ]
