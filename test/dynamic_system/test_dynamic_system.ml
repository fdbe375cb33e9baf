(* The dynamic optimizing system: warm-started construction and the kernel
   cache (the paper's ongoing-work feature). *)

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gemm ~m = Ops.Op.compute (Ops.Matmul.gemm ~m ~n:512 ~k:512 ())

(* ---------- warm start ---------- *)

let test_warm_start_cheaper () =
  let cold = Gensor.Optimizer.optimize ~hw (gemm ~m:1024) in
  let warm =
    Gensor.Optimizer.optimize ~warm_start:cold.Gensor.Optimizer.etir ~hw
      (gemm ~m:768)
  in
  check_bool "warm construction does much less work" true
    (warm.Gensor.Optimizer.states_explored
    < cold.Gensor.Optimizer.states_explored / 2);
  check_bool "warm result launchable" true
    (Costmodel.Mem_check.ok warm.Gensor.Optimizer.etir ~hw)

let test_warm_start_quality () =
  (* A warm start from a neighbouring shape must not be much worse than a
     cold construction on the same shape. *)
  let cold = Gensor.Optimizer.optimize ~hw (gemm ~m:768) in
  let seed = Gensor.Optimizer.optimize ~hw (gemm ~m:1024) in
  let warm =
    Gensor.Optimizer.optimize ~warm_start:seed.Gensor.Optimizer.etir ~hw
      (gemm ~m:768)
  in
  let ratio =
    Costmodel.Metrics.score warm.Gensor.Optimizer.metrics
    /. Costmodel.Metrics.score cold.Gensor.Optimizer.metrics
  in
  if ratio < 0.85 then
    Alcotest.failf "warm start lost too much quality: %.2f of cold" ratio

let test_warm_start_structure_mismatch () =
  let seed = Gensor.Optimizer.optimize ~hw (gemm ~m:256) in
  let gemv = Ops.Op.compute (Ops.Matmul.gemv ~m:256 ~n:256 ()) in
  try
    ignore
      (Gensor.Optimizer.optimize ~warm_start:seed.Gensor.Optimizer.etir ~hw
         gemv);
    Alcotest.fail "mismatched warm start accepted"
  with Invalid_argument _ -> ()

(* ---------- kernel cache ---------- *)

let test_cache_hit_warm_cold () =
  let cache = Dnn.Kernel_cache.create ~hw () in
  let _, first = Dnn.Kernel_cache.compile cache (gemm ~m:1024) in
  check_bool "first shape is a cold miss" true (first = Dnn.Kernel_cache.Cold_miss);
  let _, second = Dnn.Kernel_cache.compile cache (gemm ~m:1024) in
  check_bool "same shape hits" true (second = Dnn.Kernel_cache.Hit);
  let _, third = Dnn.Kernel_cache.compile cache (gemm ~m:512) in
  check_bool "same family warm-misses" true
    (third = Dnn.Kernel_cache.Warm_miss);
  let gemv = Ops.Op.compute (Ops.Matmul.gemv ~m:1024 ~n:1024 ()) in
  let _, fourth = Dnn.Kernel_cache.compile cache gemv in
  check_bool "new family is a cold miss" true
    (fourth = Dnn.Kernel_cache.Cold_miss);
  let stats = Dnn.Kernel_cache.stats cache in
  check_int "hits" 1 stats.Dnn.Kernel_cache.hits;
  check_int "warm misses" 1 stats.Dnn.Kernel_cache.warm_misses;
  check_int "cold misses" 2 stats.Dnn.Kernel_cache.cold_misses;
  check_int "entries" 3 (Dnn.Kernel_cache.size cache)

let test_cache_serves_dynamic_sequence () =
  (* A BERT-like stream of sequence lengths: after the first shape, every
     new length is served warm, and total construction work grows far slower
     than per-shape cold compilation would. *)
  let cache = Dnn.Kernel_cache.create ~hw () in
  let shapes = [ 128; 192; 256; 160; 224; 128; 192 ] in
  List.iter
    (fun m ->
      let entry, _ = Dnn.Kernel_cache.compile cache (gemm ~m:(m * 4)) in
      check_bool "served kernel launchable" true
        (Costmodel.Mem_check.ok entry.Dnn.Kernel_cache.etir ~hw))
    shapes;
  let stats = Dnn.Kernel_cache.stats cache in
  check_int "two repeats hit" 2 stats.Dnn.Kernel_cache.hits;
  check_int "one cold" 1 stats.Dnn.Kernel_cache.cold_misses;
  check_int "rest warm" 4 stats.Dnn.Kernel_cache.warm_misses;
  let cold = Gensor.Optimizer.optimize ~hw (gemm ~m:512) in
  check_bool "total work under 3 cold constructions" true
    (stats.Dnn.Kernel_cache.construction_steps
    < 3 * cold.Gensor.Optimizer.states_explored)

let test_cache_keys () =
  let a = gemm ~m:1024 and b = gemm ~m:512 in
  check_bool "different shapes, different keys" true
    (Dnn.Kernel_cache.shape_key a <> Dnn.Kernel_cache.shape_key b);
  Alcotest.(check string)
    "same family key"
    (Dnn.Kernel_cache.family_key a)
    (Dnn.Kernel_cache.family_key b)

(* Regression: the old flat keys ("name|e1xe2", "name|n1,n2~") conflated
   structurally different operators whenever a name or axis name contained
   the joiner characters, or when axes differed only in kind. *)
(* Distinct fused kernels of a small MobileNetV2, in first-occurrence
   order. *)
let mobilenet_kernels () =
  let g = Dnn.Mobilenet.mobilenet_v2_graph ~batch:1 ~width_mult:0.35 () in
  let seen = Hashtbl.create 32 in
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

let test_cache_key_injectivity () =
  let open Tensor_lang in
  let mk ~name ~axes =
    Compute.v ~name ~axes
      ~inputs:
        [ { Compute.in_name = "X";
            in_shape = List.map Axis.extent axes;
            in_dtype = Dtype.F32 } ]
      ~out_name:"O"
      ~body:(Expr.Read (Access.v "X" (List.map (fun a -> Index.Var (Axis.name a)) axes)))
      ()
  in
  (* Axis named "i,j" vs two axes "i","j": identical under the old family
     key ("op|i,j"). *)
  let fused = mk ~name:"op" ~axes:[ Axis.v "i,j" 8 ] in
  let split = mk ~name:"op" ~axes:[ Axis.v "i" 8; Axis.v "j" 8 ] in
  check_bool "axis name containing ',' keeps its own family" true
    (Dnn.Kernel_cache.family_key fused <> Dnn.Kernel_cache.family_key split);
  (* Spatial vs reduce axis of the same extent: identical under the old
     shape key ("op|8x8"). *)
  let spatial = mk ~name:"op2" ~axes:[ Axis.v "i" 8; Axis.v "k" 8 ] in
  let reduced =
    Compute.v ~name:"op2"
      ~axes:[ Axis.v "i" 8; Axis.v ~kind:Axis.Reduce "k" 8 ]
      ~inputs:
        [ { Compute.in_name = "X"; in_shape = [ 8; 8 ]; in_dtype = Dtype.F32 } ]
      ~out_name:"O"
      ~body:(Expr.Read (Access.v "X" [ Index.Var "i"; Index.Var "k" ]))
      ()
  in
  check_bool "axis kind is part of the shape key" true
    (Dnn.Kernel_cache.shape_key spatial <> Dnn.Kernel_cache.shape_key reduced);
  check_bool "axis kind is part of the family key" true
    (Dnn.Kernel_cache.family_key spatial
    <> Dnn.Kernel_cache.family_key reduced);
  (* Operator names containing '|' and 'x' (the old joiners). *)
  let weird = mk ~name:"mm|2x3" ~axes:[ Axis.v "i" 4 ] in
  let plain = mk ~name:"mm" ~axes:[ Axis.v "i" 4 ] in
  check_bool "name containing '|'/'x' stays distinct" true
    (Dnn.Kernel_cache.shape_key weird <> Dnn.Kernel_cache.shape_key plain
    && Dnn.Kernel_cache.family_key weird <> Dnn.Kernel_cache.family_key plain);
  (* And the cache must treat a collision-prone pair as distinct entries.
     A real GEMM and its all-spatial twin (same name, same extents, k
     spatial instead of reduce) shared the old shape key "gemm|64x64x64";
     compiling the twin after the GEMM must be a construction, never a
     bogus exact hit. *)
  let gemm64 = Ops.Op.compute (Ops.Matmul.gemm ~m:64 ~n:64 ~k:64 ()) in
  let twin =
    Compute.v
      ~name:(Compute.name gemm64)
      ~axes:[ Axis.v "i" 64; Axis.v "j" 64; Axis.v "k" 64 ]
      ~inputs:
        [ { Compute.in_name = "A"; in_shape = [ 64; 64 ]; in_dtype = Dtype.F32 };
          { Compute.in_name = "B"; in_shape = [ 64; 64 ]; in_dtype = Dtype.F32 } ]
      ~out_name:"C"
      ~body:
        (Expr.Mul
           ( Expr.Read (Access.v "A" [ Index.Var "i"; Index.Var "k" ]),
             Expr.Read (Access.v "B" [ Index.Var "k"; Index.Var "j" ]) ))
      ()
  in
  check_bool "gemm and its all-spatial twin get distinct keys" true
    (Dnn.Kernel_cache.shape_key gemm64 <> Dnn.Kernel_cache.shape_key twin);
  (* Same name and extents, different input shapes: MobileNetV2's stride-1
     and stride-2 depthwise convs (fused kernels 4 and 7 below) shared the
     name/extent key. *)
  let k = mobilenet_kernels () in
  let k4 = Ops.Op.compute (List.nth k 4) and k7 = Ops.Op.compute (List.nth k 7) in
  check_bool "kernels 4 and 7 share name and extents" true
    (Compute.name k4 = Compute.name k7
    && List.map Axis.extent (Compute.axes k4)
       = List.map Axis.extent (Compute.axes k7));
  check_bool "strided twin gets its own shape key" true
    (Dnn.Kernel_cache.shape_key k4 <> Dnn.Kernel_cache.shape_key k7);
  let cache = Dnn.Kernel_cache.create ~hw () in
  let _, first = Dnn.Kernel_cache.compile cache gemm64 in
  check_bool "gemm compiles cold" true (first = Dnn.Kernel_cache.Cold_miss);
  let _, second = Dnn.Kernel_cache.compile cache twin in
  check_bool "all-spatial twin is not a false hit" true
    (second <> Dnn.Kernel_cache.Hit);
  check_int "two distinct entries" 2 (Dnn.Kernel_cache.size cache)

(* Regression: with name/extent keys, kernel 7 came back as an exact [Hit]
   on kernel 4's entry (and 12 on 9's), so the cache served a stride-1
   schedule for a stride-2 conv. *)
let test_cache_entries_keep_their_compute () =
  let cache = Dnn.Kernel_cache.create ~hw () in
  List.iteri
    (fun i op ->
      if i <= 12 then begin
        let compute = Ops.Op.compute op in
        let entry, _ = Dnn.Kernel_cache.compile cache compute in
        let fp = Tensor_lang.Compute.fingerprint in
        if
          fp entry.Dnn.Kernel_cache.compute <> fp compute
          || fp (Sched.Etir.compute entry.Dnn.Kernel_cache.etir) <> fp compute
        then
          Alcotest.failf "kernel %d (%s) got another compute's entry" i
            (Ops.Op.name op)
      end)
    (mobilenet_kernels ())

(* ---------- persistent two-tier cache ---------- *)

let small_gemm ~m = Ops.Op.compute (Ops.Matmul.gemm ~m ~n:64 ~k:64 ())

let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "gensor-test-kcache-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fl -> try Sys.remove (Filename.concat dir fl) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* Two processes sharing one store directory, simulated by two fresh caches:
   everything process 1 constructed is served to process 2 from disk — exact
   shapes as hits, new family members as warm starts, zero cold work. *)
let test_cache_persists_across_processes () =
  with_store_dir (fun dir ->
      let run1 =
        Dnn.Kernel_cache.create ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      List.iter
        (fun m -> ignore (Dnn.Kernel_cache.compile run1 (small_gemm ~m)))
        [ 256; 320 ];
      let s1 = Dnn.Kernel_cache.stats run1 in
      check_int "run 1: one cold" 1 s1.Dnn.Kernel_cache.cold_misses;
      check_int "run 1: one warm" 1 s1.Dnn.Kernel_cache.warm_misses;
      check_int "run 1: both written through" 2
        s1.Dnn.Kernel_cache.store_writes;
      let run2 =
        Dnn.Kernel_cache.create ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      check_int "run 2 preloads everything run 1 built" 2
        (Dnn.Kernel_cache.preloaded_count run2);
      let lookups =
        List.map
          (fun m -> snd (Dnn.Kernel_cache.compile run2 (small_gemm ~m)))
          [ 256; 320; 384 ]
      in
      check_bool "known shapes hit, new shape warm" true
        (lookups
        = [ Dnn.Kernel_cache.Hit; Dnn.Kernel_cache.Hit;
            Dnn.Kernel_cache.Warm_miss ]);
      let s2 = Dnn.Kernel_cache.stats run2 in
      check_int "run 2: zero cold constructions" 0
        s2.Dnn.Kernel_cache.cold_misses;
      check_int "run 2: store hits counted" 2 s2.Dnn.Kernel_cache.store_hits;
      (* Run 2 wrote the new shape through; a third open sees all three. *)
      check_int "store accumulates" 3
        (Artifact.Store.size (Artifact.Store.open_ dir)))

(* A corrupted store degrades to a reported cold miss, never a failure or a
   silently wrong kernel. *)
let test_cache_corrupt_store_degrades () =
  with_store_dir (fun dir ->
      let run1 =
        Dnn.Kernel_cache.create ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      ignore (Dnn.Kernel_cache.compile run1 (small_gemm ~m:256));
      (* Truncate every artifact in place. *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".gat" then begin
            let path = Filename.concat dir f in
            let text =
              In_channel.with_open_bin path In_channel.input_all
            in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (String.sub text 0 (String.length text / 2)))
          end)
        (Sys.readdir dir);
      let store = Artifact.Store.open_ dir in
      check_bool "corruption is reported" true
        (Artifact.Store.issues store <> []);
      let run2 = Dnn.Kernel_cache.create ~store ~hw () in
      check_int "nothing preloaded from a corrupt store" 0
        (Dnn.Kernel_cache.preloaded_count run2);
      let _, lookup = Dnn.Kernel_cache.compile run2 (small_gemm ~m:256) in
      check_bool "degrades to a cold construction" true
        (lookup = Dnn.Kernel_cache.Cold_miss))

(* ---------- certificate-gated dispatch ---------- *)

(* The hand-checkable legal 256^3 GEMM schedule of the verify tests: block
   32x16, thread 4x4, reduce chunk 8 unrolled by 2.  Its certificate is
   known in closed form — floors 32/16/8, guards 32|i, 16|j, 8|k — so the
   dispatch tests are deterministic without depending on what the
   optimizer happens to construct. *)
let gemm3 m n k = Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ())

let configured_256 () =
  let open Sched in
  let e = Etir.create (gemm3 256 256 256) in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 2 in
  Etir.with_cur_level e 0

let certified_record () =
  let etir = configured_256 () in
  let outcome = Verify.Cert.certify ~hw etir in
  let cert = Option.get outcome.Verify.Cert.cert in
  Artifact.Record.v ~method_name:"gensor" ~cert ~device:hw ~etir
    ~metrics:(Costmodel.Model.evaluate ~hw etir) ()

(* Unit: dispatch serves an in-region shape from the certificate with zero
   construction, and refuses an out-of-region shape. *)
let test_dispatch_cert_gating () =
  with_store_dir (fun dir ->
      let store = Artifact.Store.open_ dir in
      ignore (Artifact.Store.put store (certified_record ()) : string);
      let cache =
        Dnn.Kernel_cache.create ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      check_int "cert entry preloaded" 1
        (Dnn.Kernel_cache.preloaded_count cache);
      (* 64x64x64 is inside the region (floors 32/16/8) and on every guard
         multiple: a Cert_hit with no construction at all. *)
      let entry, look = Dnn.Kernel_cache.dispatch cache (gemm3 64 64 64) in
      check_bool "in-region shape served by certificate" true
        (look = Dnn.Kernel_cache.Cert_hit);
      check_bool "retargeted schedule verifies clean" true
        (Verify.ok entry.Dnn.Kernel_cache.etir ~hw);
      let s = Dnn.Kernel_cache.stats cache in
      check_int "cert hit counted" 1 s.Dnn.Kernel_cache.cert_hits;
      check_int "no construction steps" 0
        s.Dnn.Kernel_cache.construction_steps;
      (* A second dispatch of the same shape is now an exact hit. *)
      let _, again = Dnn.Kernel_cache.dispatch cache (gemm3 64 64 64) in
      check_bool "cert-served shape becomes an exact hit" true
        (again = Dnn.Kernel_cache.Hit);
      (* 16 is below the clamp-free floor of i: the cached kernel must be
         refused and the shape pays its own construction. *)
      let entry', look' = Dnn.Kernel_cache.dispatch cache (gemm3 16 64 64) in
      check_bool "out-of-region shape is not cert-served" true
        (look' <> Dnn.Kernel_cache.Cert_hit
        && look' <> Dnn.Kernel_cache.Hit);
      check_bool "fallback construction verifies clean" true
        (Verify.ok entry'.Dnn.Kernel_cache.etir ~hw);
      let s' = Dnn.Kernel_cache.stats cache in
      check_int "reject counted" 1 s'.Dnn.Kernel_cache.cert_rejects;
      check_bool "fallback paid construction steps" true
        (s'.Dnn.Kernel_cache.construction_steps > 0);
      check_bool "registry counters mirror the stats" true
        (match
           ( Trace.Counter.find "verify.cert.hit",
             Trace.Counter.find "verify.cert.reject" )
         with
        | Some h, Some r -> h >= 1 && r >= 1
        | _ -> false))

(* Integration: a certifying cache writes certificates through the store,
   and the BERT bucket arm dispatches across sequence lengths with the
   certificates enforcing the region at every lookup. *)
let test_certify_writes_through () =
  with_store_dir (fun dir ->
      let run1 =
        Dnn.Kernel_cache.create ~certify:true
          ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      let entry, _ = Dnn.Kernel_cache.compile run1 (small_gemm ~m:256) in
      check_bool "construction was certified" true
        (entry.Dnn.Kernel_cache.cert <> None);
      (* A second process preloads the certificate and can dispatch on it
         without certifying anything itself. *)
      let run2 =
        Dnn.Kernel_cache.create ~store:(Artifact.Store.open_ dir) ~hw ()
      in
      let preloaded, look =
        Dnn.Kernel_cache.dispatch run2 (small_gemm ~m:256)
      in
      check_bool "exact preloaded hit" true (look = Dnn.Kernel_cache.Hit);
      check_bool "certificate survived the store round-trip" true
        (preloaded.Dnn.Kernel_cache.cert = entry.Dnn.Kernel_cache.cert))

let test_bert_certified_buckets () =
  let seqs = [ 32; 64 ] in
  let reports, stats =
    Dnn.Dynamic.bert_gensor_certified ~hw ~batch:2 ~seqs ()
  in
  check_int "one report per bucket" 2 (List.length reports);
  List.iter2
    (fun seq r ->
      Alcotest.(check string)
        "labelled by bucket" (Fmt.str "seq=%d" seq) r.Dnn.Dynamic.shape_label;
      check_bool "positive throughput" true (r.Dnn.Dynamic.throughput > 0.0))
    seqs reports;
  (* Every lookup was either served within a certified region or paid its
     own construction — and both dispatch outcomes actually occur on this
     bucket set. *)
  check_bool "certificates served some buckets" true
    (stats.Dnn.Kernel_cache.cert_hits > 0);
  check_bool "out-of-region buckets were refused, not served" true
    (stats.Dnn.Kernel_cache.cert_rejects > 0)

let () =
  Alcotest.run "dynamic_system"
    [ ("warm_start",
       [ Alcotest.test_case "cheaper than cold" `Quick test_warm_start_cheaper;
         Alcotest.test_case "quality preserved" `Quick test_warm_start_quality;
         Alcotest.test_case "structure mismatch rejected" `Quick
           test_warm_start_structure_mismatch ]);
      ("kernel_cache",
       [ Alcotest.test_case "hit/warm/cold classification" `Quick
           test_cache_hit_warm_cold;
         Alcotest.test_case "dynamic sequence stream" `Quick
           test_cache_serves_dynamic_sequence;
         Alcotest.test_case "keys" `Quick test_cache_keys;
         Alcotest.test_case "key injectivity regression" `Quick
           test_cache_key_injectivity;
         Alcotest.test_case "entries keep their compute" `Quick
           test_cache_entries_keep_their_compute ]);
      ("persistent_cache",
       [ Alcotest.test_case "second process runs warm" `Quick
           test_cache_persists_across_processes;
         Alcotest.test_case "corrupt store degrades to cold" `Quick
           test_cache_corrupt_store_degrades ]);
      ("cert_dispatch",
       [ Alcotest.test_case "region gating" `Quick test_dispatch_cert_gating;
         Alcotest.test_case "certificates persist" `Quick
           test_certify_writes_through;
         Alcotest.test_case "bert buckets" `Quick
           test_bert_certified_buckets ]) ]
