(* Uniform interface over the compilation methods compared throughout the
   evaluation.  Each method compiles one operator and reports the chosen
   configuration, predicted metrics, and its optimisation cost in both real
   wall time and simulated time (see Sim_time). *)

type output = {
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  analysis_steps : int;   (* Markov policy evaluations (Gensor) *)
  tree_steps : int;       (* deterministic tree comparisons (Roller) *)
  measure_trials : int;   (* on-device measurements (search methods) *)
  wall_s : float;
}

type t = {
  name : string;
  compile : hw:Hardware.Gpu_spec.t -> Ops.Op.t -> output;
}

let simulated_opt_time output =
  Sim_time.simulated ~tree_steps:output.tree_steps
    ~analysis_steps:output.analysis_steps
    ~measure_trials:output.measure_trials ()

(* Debug-mode legality assertion.  With verification on, every state a
   method emits is run through the {!Verify} passes; an Error-severity
   diagnostic means the method shipped an illegal schedule into the
   comparison and raises immediately.  Opt in with GENSOR_VERIFY=1 (any
   value but "0"/"false") or programmatically via [debug_verify]. *)
let debug_verify = ref (Trace.Env.bool ~default:false "GENSOR_VERIFY")

(* Per-method compile arm: one span per (method, op, device) cell so the
   trace shows where a sweep's time goes method by method. *)
let traced ~method_name compile ~hw op =
  Trace.with_span ~name:"method.compile"
    ~args:
      [ ("device", Hardware.Gpu_spec.name hw);
        ("method", method_name);
        ("op", Ops.Op.name op) ]
    (fun () -> compile ~hw op)

let verified ~method_name ~hw op output =
  if !debug_verify then begin
    match Verify.Diagnostic.errors (Verify.run output.etir ~hw) with
    | [] -> ()
    | errors ->
      failwith
        (Fmt.str "@[<v>%s emitted an illegal schedule for %s:@,%a@]"
           method_name (Ops.Op.name op) Verify.Diagnostic.pp_report errors)
  end;
  output

let gensor ?(config = Gensor.Optimizer.default_config) ?(name = "Gensor") () =
  { name;
    compile =
      traced ~method_name:name (fun ~hw op ->
        let r = Gensor.Optimizer.optimize ~config ~hw (Ops.Op.compute op) in
        verified ~method_name:name ~hw op
          { etir = r.Gensor.Optimizer.etir;
            metrics = r.Gensor.Optimizer.metrics;
            analysis_steps =
              r.Gensor.Optimizer.states_explored
              + r.Gensor.Optimizer.candidates_evaluated;
            tree_steps = 0;
            measure_trials = 0;
            wall_s = r.Gensor.Optimizer.wall_time_s }) }

(* Table VI ablations. *)
let gensor_without_vthread () =
  gensor
    ~config:(Gensor.Optimizer.without_vthread Gensor.Optimizer.default_config)
    ~name:"Gensor w/o vThread" ()

let gensor_tree_only () =
  gensor
    ~config:(Gensor.Optimizer.tree_only Gensor.Optimizer.default_config)
    ~name:"Gensor (tree mode)" ()

let roller () =
  { name = "Roller";
    compile =
      traced ~method_name:"Roller" (fun ~hw op ->
        let r = Roller.construct ~hw (Ops.Op.compute op) in
        verified ~method_name:"Roller" ~hw op
          { etir = r.Roller.etir;
            metrics = r.Roller.metrics;
            analysis_steps = 0;
            tree_steps = r.Roller.candidates_examined;
            measure_trials = 0;
            wall_s = r.Roller.wall_time_s }) }

let ansor ?(n_trials = Ansor.Search.default_config.Ansor.Search.n_trials) () =
  { name = "Ansor";
    compile =
      traced ~method_name:"Ansor" (fun ~hw op ->
        let config = { Ansor.Search.default_config with n_trials } in
        let r = Ansor.Search.search ~config ~hw (Ops.Op.compute op) in
        verified ~method_name:"Ansor" ~hw op
          { etir = r.Ansor.Search.etir;
            metrics = r.Ansor.Search.metrics;
            analysis_steps = 0;
            tree_steps = 0;
            measure_trials = r.Ansor.Search.trials;
            wall_s = r.Ansor.Search.wall_time_s }) }

(* Vendor-template methods: a fixed bank dispatched by shape, no search
   steps, so their simulated optimisation time is zero. *)
let vendor ~name compile =
  { name;
    compile =
      traced ~method_name:name (fun ~hw op ->
        let r = compile ~hw op in
        verified ~method_name:name ~hw op
          { etir = r.Vendor.Cublas.etir;
            metrics = r.Vendor.Cublas.metrics;
            analysis_steps = 0;
            tree_steps = 0;
            measure_trials = 0;
            wall_s = r.Vendor.Cublas.wall_time_s }) }

let cublas () = vendor ~name:"cuBLAS" (fun ~hw op -> Vendor.Cublas.compile ~hw op)

(* The eager-framework bar of Figs. 9-12: cuBLAS's schedule, charged the
   eager per-op time of {!Vendor.Pytorch}. *)
let pytorch () =
  vendor ~name:"PyTorch" (fun ~hw op -> Vendor.Pytorch.compile ~hw op)

(* Artifact view: one compiled output as a persistable artifact and back.
   A loaded artifact reports zero optimisation cost — the search was paid
   in whatever process produced it. *)

let to_artifact ?seed ?verify ~method_name ~hw (o : output) =
  Artifact.Record.v ~method_name ?seed
    ~steps:(o.analysis_steps + o.tree_steps + o.measure_trials)
    ?verify ~device:hw ~etir:o.etir ~metrics:o.metrics ()

let of_artifact (r : Artifact.Record.t) =
  { etir = r.etir; metrics = r.metrics; analysis_steps = 0; tree_steps = 0;
    measure_trials = 0; wall_s = 0.0 }

(* The standard comparison set of §V-A. *)
let standard () = [ cublas (); ansor (); roller (); gensor () ]

(* Sweep: compile every device x op x method cell, fanned over the domain
   pool.  Each cell is an independent compilation, and every method runs
   its own search sequentially, so the cell (a kernel) is the one parallel
   grain, as in [Dnn.Runner.run_graph].  Cells come back in deterministic
   device x op x method order regardless of the pool width. *)
type cell = {
  cell_device : Hardware.Gpu_spec.t;
  cell_label : string;
  cell_op : Ops.Op.t;
  cell_method : string;
  cell_output : output;
}

let sweep ?jobs ~devices ~methods ops =
  let cells =
    List.concat_map
      (fun hw ->
        List.concat_map
          (fun (label, op) ->
            List.map (fun method_ -> (hw, label, op, method_)) methods)
          ops)
      devices
  in
  Trace.with_span ~name:"pipeline.sweep"
    ~args:[ ("cells", string_of_int (List.length cells)) ]
  @@ fun () ->
  Parallel.Pool.map_auto ?jobs
    (fun (hw, label, op, method_) ->
      { cell_device = hw;
        cell_label = label;
        cell_op = op;
        cell_method = method_.name;
        cell_output = method_.compile ~hw op })
    cells

(* One-line incremental-evaluation summary for sweep reports (DESIGN.md
   §10). *)
let pp_incremental_stats ppf () =
  let d = Costmodel.Delta.stats () in
  let open Costmodel.Delta in
  let touched = d.st_levels_recomputed + d.st_levels_reused in
  let reuse =
    if touched = 0 then 0.0
    else 100.0 *. float_of_int d.st_levels_reused /. float_of_int touched
  in
  Fmt.pf ppf
    "incremental eval: %d incremental / %d full builds, %.1f%% level terms \
     reused"
    d.st_incremental_builds d.st_full_builds reuse
