(* Edge deployment: ResNet-50 on the Orin Nano preset (paper Fig. 9b).

   On an edge device the optimisation-time/performance trade-off bites:
   search-based tuning is impractical (the paper drops Ansor for memory
   reasons), so construction methods compete on both axes.

   Run with: dune exec examples/edge_deployment.exe *)

let () =
  let hw = Hardware.Presets.orin_nano in
  let model = Dnn.Resnet.resnet50 ~batch:1 () in
  Fmt.pr "%a on %s@.@." Dnn.Model.pp model (Hardware.Gpu_spec.name hw);
  let graph = Dnn.Graph.of_model model in
  let reports =
    List.map
      (fun m -> Dnn.Runner.run_graph ~fuse:false ~hw m graph)
      [ Pipeline.Methods.pytorch (); Pipeline.Methods.roller ();
        Pipeline.Methods.gensor () ]
  in
  Report.Table.print
    (Report.Table.v
       ~headers:[ "method"; "fps"; "latency (ms)"; "opt time (sim, s)" ]
       (List.map
          (fun r ->
            [ r.Dnn.Runner.g_method;
              Fmt.str "%.1f" r.Dnn.Runner.g_throughput;
              Fmt.str "%.2f" (r.Dnn.Runner.g_e2e_s *. 1e3);
              Fmt.str "%.1f" r.Dnn.Runner.g_compile_sim_s ])
          reports));
  let find name =
    List.find (fun r -> r.Dnn.Runner.g_method = name) reports
  in
  let gensor = find "Gensor" and roller = find "Roller" in
  Fmt.pr
    "@.Gensor runs %.2fx faster than the tree-based constructor for %.0fx@.\
     its optimisation time -- amortised after %.0f inferences.@."
    (gensor.Dnn.Runner.g_throughput /. roller.Dnn.Runner.g_throughput)
    (gensor.Dnn.Runner.g_compile_sim_s
    /. Float.max 1e-9 roller.Dnn.Runner.g_compile_sim_s)
    ((gensor.Dnn.Runner.g_compile_sim_s -. roller.Dnn.Runner.g_compile_sim_s)
    /. Float.max 1e-9
         (roller.Dnn.Runner.g_e2e_s -. gensor.Dnn.Runner.g_e2e_s))
