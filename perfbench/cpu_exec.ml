(* cpu-exec: compiled bytecode execution alone.  Set-up searches the
   kernels, draws seeded inputs and computes the reference outputs (the
   reference interpreter is ~50x slower than the VM, so it stays out of
   the op); one op compiles and runs every kernel in topological order and
   checks each output. *)

open Common

type kernel = {
  name : string;
  etir : Sched.Etir.t;
  inputs : (string * Exec.Tensor.t) list;
  expected : Exec.Tensor.t;
}

(* BERT-small at four tokens, plus the depthwise and projection convs of
   MobileNetV2's first inverted-residual block at width 0.25.  Sizes keep
   one reference pass at a few seconds of set-up. *)
let ops () =
  distinct_ops (fused (Dnn.Transformer.bert_small_graph ~batch:1 ~seq:4 ()))
  @ List.filteri
      (fun i _ -> i = 1 || i = 2)
      (distinct_ops
         (fused (Dnn.Mobilenet.mobilenet_v2_graph ~batch:1 ~width_mult:0.25 ())))

let setup ~seed ~dir:_ =
  let _, method_ = gensor ~seed in
  Parallel.Memo.clear_all ();
  let compiled =
    List.map
      (fun op ->
        let out = method_.Pipeline.Methods.compile ~hw op in
        let compute = Ops.Op.compute op in
        let inputs = Exec.Reference.random_inputs ~seed compute in
        ( { name = Ops.Op.name op;
            etir = out.Pipeline.Methods.etir;
            inputs;
            expected = Exec.Reference.run compute inputs },
          out.Pipeline.Methods.metrics.Costmodel.Metrics.exec_time_s ))
      (ops ())
  in
  let kernels = List.map fst compiled in
  let sim_ms = 1e3 *. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 compiled in
  let op () =
    let points0 = counter "exec.compiled.points" in
    let failures =
      List.concat_map
        (fun k ->
          let prog =
            Layer.time "exec.compile" (fun () -> Exec.Compiled.compile k.etir)
          in
          let r =
            Layer.time "exec.run" (fun () ->
                Exec.Compiled.run_compiled prog k.inputs)
          in
          Layer.time "exec.check" (fun () ->
              (match
                 Exec.Tensor.first_mismatch r.Exec.Scheduled.output k.expected
               with
              | None -> []
              | Some (at, got, want) ->
                [ Fmt.str "%s: output[%a] = %g, reference %g" k.name
                    Fmt.(list ~sep:comma int) at got want ])
              @
              match Exec.Scheduled.coverage_violation r with
              | None -> []
              | Some v ->
                [ Fmt.str "%s: %a" k.name Exec.Scheduled.pp_coverage_violation v ]))
        kernels
    in
    { failures;
      sim_ms;
      facts =
        [ ("kernels", List.length kernels);
          ("points", counter "exec.compiled.points" - points0) ] }
  in
  { reset = ignore; op; tidy = ignore }
