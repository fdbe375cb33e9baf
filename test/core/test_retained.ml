(* §V-A: Gensor's intermediate states are search-local.  After an
   optimisation returns, a full collection must give back everything but the
   result, so the live heap is what it was before the run.  A process-wide
   cache filled by the search would show up here as retained megabytes.
   This suite is its own executable so that no earlier test has warmed
   anything before the baseline is taken. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_optimize_retains_nothing () =
  let hw = Hardware.Presets.rtx4090 in
  let compute =
    Ops.Op.compute (Ops.Matmul.gemm ~m:1024 ~n:1024 ~k:1024 ())
  in
  let before = live_words () in
  let result = Gensor.Optimizer.optimize ~hw compute in
  let after = live_words () in
  ignore (Sys.opaque_identity result);
  let grown_mb =
    float_of_int ((after - before) * (Sys.word_size / 8)) /. 1024. /. 1024.
  in
  Alcotest.(check bool)
    (Fmt.str "live heap grew %.3f MB (< 1 MB)" grown_mb)
    true (grown_mb < 1.0)

let () =
  Alcotest.run "retained"
    [ ("optimizer",
       [ Alcotest.test_case "retains no state after optimize" `Quick
           test_optimize_retains_nothing ]) ]
