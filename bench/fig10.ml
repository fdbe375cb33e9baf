(* Fig. 10 — inference performance vs optimisation time, ResNet-34 with
   input [128,3,224,224] on the RTX 4090.  The paper's reading: Gensor's
   optimisation time is the same order as Roller's yet far faster than
   Ansor's, while its performance approaches Ansor's. *)

let run () =
  Ctx.section "Fig. 10 — performance vs optimisation time (ResNet-34, b=128)";
  let hw = Hardware.Presets.rtx4090 in
  let graph = Dnn.Graph.of_model (Dnn.Resnet.resnet34 ~batch:128 ()) in
  let reports =
    List.map
      (fun m -> Dnn.Runner.run_graph ~fuse:false ~hw m graph)
      [ Pipeline.Methods.pytorch (); Pipeline.Methods.roller ();
        Pipeline.Methods.gensor (); Pipeline.Methods.ansor () ]
  in
  Report.Table.print
    (Report.Table.v
       ~headers:[ "method"; "opt time (sim, s)"; "fps" ]
       (List.map
          (fun r ->
            [ r.Dnn.Runner.g_method;
              Fmt.str "%.1f" r.Dnn.Runner.g_compile_sim_s;
              Fmt.str "%.1f" r.Dnn.Runner.g_throughput ])
          reports));
  let find name =
    List.find (fun r -> r.Dnn.Runner.g_method = name) reports
  in
  let gensor = find "Gensor" and ansor = find "Ansor" and roller = find "Roller" in
  Ctx.record ~experiment:"fig10" ~quantity:"Gensor perf as fraction of Ansor"
    ~paper:0.95
    ~measured:(gensor.Dnn.Runner.g_throughput /. ansor.Dnn.Runner.g_throughput)
    ~unit_:"fraction" ();
  Ctx.record ~experiment:"fig10"
    ~quantity:"Gensor/Roller opt-time ratio (same order)" ~paper:10.0
    ~measured:(gensor.Dnn.Runner.g_compile_sim_s /. roller.Dnn.Runner.g_compile_sim_s)
    ~unit_:"x" ();
  Ctx.record ~experiment:"fig10" ~quantity:"Ansor/Gensor opt-time ratio"
    ~paper:100.0
    ~measured:(ansor.Dnn.Runner.g_compile_sim_s /. gensor.Dnn.Runner.g_compile_sim_s)
    ~unit_:"x" ()
