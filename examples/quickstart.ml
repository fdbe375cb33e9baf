(* Quickstart: compile one operator with Gensor and inspect everything the
   library produces — the chosen schedule, its predicted metrics, a numeric
   correctness check against the reference interpreter, and the generated
   CUDA-like kernel.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Pick a device and an operator. *)
  let hw = Hardware.Presets.rtx4090 in
  let op = Ops.Matmul.gemm ~m:1024 ~n:1024 ~k:512 () in
  Fmt.pr "Operator: %a@.Device:   %s@.@." Ops.Op.pp op (Hardware.Gpu_spec.name hw);

  (* 2. Run Gensor's graph-based construction. *)
  let result = Gensor.Optimizer.optimize ~hw (Ops.Op.compute op) in
  Fmt.pr "== schedule ==@.%a@.@." Sched.Etir.pp result.Gensor.Optimizer.etir;
  Fmt.pr "== predicted metrics ==@.%a@.@." Costmodel.Metrics.pp
    result.Gensor.Optimizer.metrics;
  Fmt.pr "construction: %d Markov steps, %d states evaluated, %.3f s wall@.@."
    result.Gensor.Optimizer.states_explored
    result.Gensor.Optimizer.candidates_evaluated
    result.Gensor.Optimizer.wall_time_s;

  (* 3. Validate the schedule numerically on a reduced instance: the tiled /
     vthreaded loop nest, run by the compiled VM, must write every output
     element once and reproduce the reference interpreter bit for bit. *)
  let small = Ops.Op.compute (Ops.Matmul.gemm ~m:32 ~n:24 ~k:16 ()) in
  let small_schedule =
    Sched.Etir.retarget result.Gensor.Optimizer.etir small
  in
  let inputs = Exec.Reference.random_inputs small in
  let expected = Exec.Reference.run small inputs in
  let executed = Exec.Compiled.run small_schedule inputs in
  Fmt.pr
    "numeric check (32x24x16 instance, compiled VM): coverage exact = %b, \
     bit-identical to reference = %b@.@."
    (Exec.Scheduled.coverage_exact executed)
    (Exec.Tensor.first_bit_mismatch expected executed.Exec.Scheduled.output
    = None);

  (* 4. Emit the CUDA-like kernel. *)
  Fmt.pr "== generated kernel ==@.%s@.%s@."
    (Codegen.Cuda.emit result.Gensor.Optimizer.etir)
    (Codegen.Cuda.emit_host result.Gensor.Optimizer.etir)
