(* Dynamic-shape scenarios (paper Figs. 11 and 12).

   Fig. 11: BERT-small instantiated at several sequence lengths; per-shape
   compilation for the construction methods, bucketed pre-tuning for
   DietCode.

   Fig. 12: a model whose channel widths are adjusted between inference
   phases; each method pays its optimisation time at every adjustment, then
   runs a fixed number of images. *)

type shape_report = {
  shape_label : string;
  method_name : string;
  exec_time_s : float;
  throughput : float;     (* batch items per second *)
  opt_sim_s : float;      (* simulated optimisation time for this shape *)
}

(* BERT-small across sequence lengths, one report per (shape, method). *)
let bert_per_shape ~hw (method_ : Pipeline.Methods.t) ~batch ~seqs =
  List.map
    (fun seq ->
      let graph = Graph.of_model (Transformer.bert_small ~batch ~seq ()) in
      let report = Runner.run_graph ~fuse:false ~hw method_ graph in
      { shape_label = Fmt.str "seq=%d" seq;
        method_name = report.Runner.g_method;
        exec_time_s = report.Runner.g_e2e_s;
        throughput = report.Runner.g_throughput;
        opt_sim_s = report.Runner.g_compile_sim_s })
    seqs

(* DietCode on the same family: group operators by their layer role, tune
   bucket kernels once per role across the sequence lengths, dispatch each
   shape to its best bucket. *)
let bert_dietcode ?(buckets = 2) ?(trials_per_bucket = 100) ~hw ~batch ~seqs ()
    =
  let models = List.map (fun seq -> (seq, Transformer.bert_small ~batch ~seq ())) seqs in
  (* role -> (seq, layer) list *)
  let roles : (string, (int * Model.layer) list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (seq, model) ->
      List.iter
        (fun layer ->
          let key = layer.Model.layer_name in
          let existing = Option.value (Hashtbl.find_opt roles key) ~default:[] in
          Hashtbl.replace roles key ((seq, layer) :: existing))
        (Model.layers model))
    models;
  (* Tune each role's shape family once; remember per-compute metrics. *)
  let metrics_by_key : (string, Costmodel.Metrics.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let total_trials = ref 0 in
  Hashtbl.iter
    (fun _role entries ->
      let computes =
        List.map (fun (_, layer) -> Ops.Op.compute layer.Model.op) entries
      in
      let result =
        Vendor.Dietcode.tune ~buckets ~trials_per_bucket ~hw computes
      in
      total_trials := !total_trials + result.Vendor.Dietcode.tuning_trials;
      List.iter2
        (fun (_, layer) (_, _, metrics) ->
          Hashtbl.replace metrics_by_key (Model.distinct_key layer.Model.op)
            metrics)
        entries result.Vendor.Dietcode.per_shape)
    roles;
  let tuning_sim_s =
    Pipeline.Sim_time.simulated ~analysis_steps:0
      ~measure_trials:!total_trials ()
  in
  List.map
    (fun (seq, model) ->
      let exec_time_s =
        List.fold_left
          (fun acc layer ->
            let metrics =
              Hashtbl.find metrics_by_key (Model.distinct_key layer.Model.op)
            in
            acc
            +. (float_of_int layer.Model.count
               *. metrics.Costmodel.Metrics.exec_time_s))
          0.0 (Model.layers model)
      in
      { shape_label = Fmt.str "seq=%d" seq;
        method_name = "DietCode";
        exec_time_s;
        throughput = float_of_int batch /. exec_time_s;
        opt_sim_s = tuning_sim_s /. float_of_int (List.length seqs) })
    models

(* Gensor with a certificate-gated kernel cache on the same bucket set:
   the largest sequence length is constructed (and certified) first, then
   every smaller one is dispatched through {!Kernel_cache.dispatch} — a
   shape a certificate admits reuses the cached schedule retargeted, with
   zero construction steps; a shape outside every certified region is
   refused and pays its own construction (counters
   [verify.cert.hit]/[verify.cert.reject]).  This is the enforcement side
   of the legality certificates: a cached kernel is never dispatched
   beyond the region it was proved legal on. *)
let bert_gensor_certified ?(config = Gensor.Optimizer.default_config) ~hw
    ~batch ~seqs () =
  let cache = Kernel_cache.create ~config ~certify:true ~hw () in
  let compile_shape seq =
    let model = Transformer.bert_small ~batch ~seq () in
    let steps_before =
      (Kernel_cache.stats cache).Kernel_cache.construction_steps
    in
    let per_op : (string, Kernel_cache.entry) Hashtbl.t = Hashtbl.create 32 in
    let entry_of op =
      let key = Model.distinct_key op in
      match Hashtbl.find_opt per_op key with
      | Some entry -> entry
      | None ->
        let entry, _ = Kernel_cache.dispatch cache (Ops.Op.compute op) in
        Hashtbl.add per_op key entry;
        entry
    in
    let exec_time_s =
      List.fold_left
        (fun acc layer ->
          let entry = entry_of layer.Model.op in
          acc
          +. (float_of_int layer.Model.count
             *. entry.Kernel_cache.metrics.Costmodel.Metrics.exec_time_s))
        0.0 (Model.layers model)
    in
    let steps_after =
      (Kernel_cache.stats cache).Kernel_cache.construction_steps
    in
    { shape_label = Fmt.str "seq=%d" seq;
      method_name = "Gensor (certified cache)";
      exec_time_s;
      throughput = float_of_int batch /. exec_time_s;
      opt_sim_s =
        Pipeline.Sim_time.simulated
          ~analysis_steps:(steps_after - steps_before) ~measure_trials:0 () }
  in
  (* Descending visit order primes the cache at each family's largest
     shape, whose certificate then covers the smaller ones. *)
  let by_seq =
    List.map
      (fun seq -> (seq, compile_shape seq))
      (List.sort_uniq (fun a b -> compare b a) seqs)
  in
  (List.map (fun seq -> List.assoc seq by_seq) seqs,
   Kernel_cache.stats cache)

(* Fig. 12: optimisation/inference timeline under dynamic channel widths. *)

type phase = { width_mult : float; images : int }

type segment = { phase_label : string; opt_s : float; infer_s : float }

type timeline = {
  timeline_method : string;
  segments : segment list;
  total_s : float;
}

let default_phases =
  [ { width_mult = 1.0; images = 2000 }; { width_mult = 0.75; images = 2000 };
    { width_mult = 1.25; images = 2000 }; { width_mult = 0.9; images = 2000 } ]

let mobilenet_timeline ~hw (method_ : Pipeline.Methods.t) ?(batch = 128)
    ?(phases = default_phases) () =
  let segments =
    List.map
      (fun { width_mult; images } ->
        let graph =
          Graph.of_model (Mobilenet.mobilenet_v2 ~batch ~width_mult ())
        in
        let report = Runner.run_graph ~fuse:false ~hw method_ graph in
        let batches = (images + batch - 1) / batch in
        { phase_label = Fmt.str "x%.2f" width_mult;
          opt_s = report.Runner.g_compile_sim_s;
          infer_s = float_of_int batches *. report.Runner.g_e2e_s })
      phases
  in
  let total_s =
    List.fold_left (fun acc s -> acc +. s.opt_s +. s.infer_s) 0.0 segments
  in
  { timeline_method = method_.Pipeline.Methods.name; segments; total_s }
