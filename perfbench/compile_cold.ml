(* compile-cold: a network set taken cold through the whole pipeline.
   Search dominates the op; verify, certify, codegen and the store write
   are the small remainder.  Every op starts from cleared memo caches and
   an empty store, so op n never reuses op n-1's work. *)

open Common

let networks () =
  [ Dnn.Transformer.bert_small_graph ~batch:8 ~seq:128 ();
    Dnn.Transformer.gpt2_graph ~batch:8 ~seq:128 () ]

(* One kernel through search, verification, certification, codegen and
   the store; returns the failed checks. *)
let compile_kernel ~method_ ~store op =
  let method_name = method_.Pipeline.Methods.name in
  let out =
    Layer.time "gensor.search" (fun () ->
        method_.Pipeline.Methods.compile ~hw op)
  in
  let etir = out.Pipeline.Methods.etir in
  let diags = Layer.time "verify.run" (fun () -> Verify.run etir ~hw) in
  let cert =
    Layer.time "verify.certify" (fun () -> Verify.Cert.certify ~hw etir)
  in
  Layer.time "codegen.emit" (fun () ->
      ignore (Codegen.Cuda.emit etir : string);
      ignore (Codegen.Cuda.emit_host etir : string));
  let record =
    { (Pipeline.Methods.to_artifact ~verify:diags ~method_name ~hw out) with
      Artifact.Record.cert = cert.Verify.Cert.cert }
  in
  ignore
    (Layer.time "artifact.put" (fun () -> Artifact.Store.put store record)
      : string);
  let errors = Verify.Diagnostic.errors diags in
  let stored =
    Artifact.Store.find store
      ~device_fingerprint:(Artifact.Gpu_codec.fingerprint hw)
      ~method_name
      ~compute_fingerprint:
        (Artifact.Compute_codec.fingerprint (Ops.Op.compute op))
  in
  List.concat
    [ (if errors = [] then []
       else
         [ Fmt.str "%s: verify reported %d error(s)" (Ops.Op.name op)
             (List.length errors) ]);
      (match stored with
      | Some r when Artifact.Record.encode r = Artifact.Record.encode record ->
        []
      | Some _ ->
        [ Fmt.str "%s: store returned another record" (Ops.Op.name op) ]
      | None ->
        [ Fmt.str "%s: store lookup missed the put record" (Ops.Op.name op) ])
    ]

let setup ~seed ~dir =
  let _, method_ = gensor ~seed in
  let graphs = networks () in
  let store = ref None in
  let reset () =
    Parallel.Memo.clear_all ();
    let d = fresh_dir dir in
    store := Some (Layer.time "artifact.open" (fun () -> Artifact.Store.open_ d))
  in
  let op () =
    let store = Option.get !store in
    let states0 = counter "optimizer.states_explored" in
    let failures = ref [] and sim = ref 0.0 and kernels = ref 0 in
    List.iter
      (fun g ->
        let f = Layer.time "dnn.fuse" (fun () -> Dnn.Fusion.fuse g) in
        ignore (Layer.time "dnn.memplan" (fun () ->
                    Dnn.Memplan.plan f.Dnn.Fusion.graph)
                : Dnn.Memplan.t);
        List.iter
          (fun op -> failures := !failures @ compile_kernel ~method_ ~store op)
          (distinct_ops f.Dnn.Fusion.graph);
        let r =
          Layer.time "dnn.run_graph" (fun () ->
              Dnn.Runner.run_graph ~store ~jobs:1 ~hw method_ g)
        in
        if r.Dnn.Runner.g_cached <> r.Dnn.Runner.g_kernels then
          failures :=
            !failures
            @ [ Fmt.str "%s: run_graph served %d of %d kernels from the store"
                  (Dnn.Graph.name g) r.Dnn.Runner.g_cached
                  r.Dnn.Runner.g_kernels ];
        kernels := !kernels + r.Dnn.Runner.g_kernels;
        sim := !sim +. (r.Dnn.Runner.g_e2e_s *. 1e3))
      graphs;
    let records = Artifact.Store.size store in
    Layer.note "artifact.records" (fun () -> float_of_int records);
    Layer.note "artifact.bytes" (fun () ->
        float_of_int (Artifact.Store.total_bytes store));
    { failures = !failures;
      sim_ms = !sim;
      facts =
        [ ("kernels", !kernels);
          ("records", records);
          ("states", counter "optimizer.states_explored" - states0) ] }
  in
  let tidy () =
    Option.iter (fun s -> remove_tree (Artifact.Store.dir s)) !store
  in
  { reset; op; tidy }
