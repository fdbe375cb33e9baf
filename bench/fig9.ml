(* Fig. 9 — end-to-end model inference.

   (a) RTX 4090, relative to Ansor: PyTorch / Roller / Gensor on BERT-small,
       ResNet-50, MobileNetV2 and GPT-2.
   (b) Orin Nano, relative to Roller: the paper drops Ansor (searching
       exhausts the device's 8 GB) and GPT-2 (does not fit), which we
       reproduce as explicit gates. *)

let cloud_models () =
  [ Dnn.Transformer.bert_small ~batch:8 ~seq:128 ();
    Dnn.Resnet.resnet50 ~batch:8 ();
    Dnn.Mobilenet.mobilenet_v2 ~batch:8 ();
    Dnn.Transformer.gpt2 ~batch:8 ~seq:128 () ]

let edge_models () =
  [ Dnn.Transformer.bert_small ~batch:1 ~seq:128 ();
    Dnn.Resnet.resnet50 ~batch:1 ();
    Dnn.Mobilenet.mobilenet_v2 ~batch:1 () ]

(* Every method over each model's unfused layer table. *)
let run_models ~hw methods models =
  List.map
    (fun model ->
      let graph = Dnn.Graph.of_model model in
      ( Dnn.Model.name model,
        List.map (fun m -> Dnn.Runner.run_graph ~fuse:false ~hw m graph) methods
      ))
    models

let print_reports ~baseline_name reports =
  Report.Table.print
    (Report.Table.v
       ~headers:
         [ "model"; "method"; "items/s"; Fmt.str "vs %s" baseline_name;
           "opt (sim, s)" ]
       (List.concat_map
          (fun (model_name, per_method) ->
            let baseline =
              List.find
                (fun r -> r.Dnn.Runner.g_method = baseline_name)
                per_method
            in
            List.map
              (fun r ->
                [ model_name; r.Dnn.Runner.g_method;
                  Fmt.str "%.1f" r.Dnn.Runner.g_throughput;
                  Report.Table.rel
                    (r.Dnn.Runner.g_throughput
                    /. baseline.Dnn.Runner.g_throughput);
                  Fmt.str "%.1f" r.Dnn.Runner.g_compile_sim_s ])
              per_method)
          reports))

let geo_ratio reports ~of_ ~over =
  Ctx.mean
    (List.filter_map
       (fun (_, per_method) ->
         let find name =
           List.find_opt (fun r -> r.Dnn.Runner.g_method = name) per_method
         in
         match (find of_, find over) with
         | Some a, Some b ->
           Some (a.Dnn.Runner.g_throughput /. b.Dnn.Runner.g_throughput)
         | _ -> None)
       reports)

let run () =
  Ctx.section "Fig. 9a — end-to-end models on the RTX 4090";
  let hw = Hardware.Presets.rtx4090 in
  let methods =
    [ Pipeline.Methods.pytorch (); Pipeline.Methods.ansor ();
      Pipeline.Methods.roller (); Pipeline.Methods.gensor () ]
  in
  let reports = run_models ~hw methods (cloud_models ()) in
  print_reports ~baseline_name:"Ansor" reports;
  let gensor_vs_roller = geo_ratio reports ~of_:"Gensor" ~over:"Roller" in
  let gensor_vs_torch = geo_ratio reports ~of_:"Gensor" ~over:"PyTorch" in
  Fmt.pr "Gensor: %.2fx Roller, %.1fx PyTorch (paper: 1.2x, 7.2x)@."
    gensor_vs_roller gensor_vs_torch;
  Ctx.record ~experiment:"fig9a" ~quantity:"Gensor/Roller e2e speedup"
    ~paper:1.2 ~measured:gensor_vs_roller ~unit_:"x" ();
  Ctx.record ~experiment:"fig9a" ~quantity:"Gensor/PyTorch e2e speedup"
    ~paper:7.2 ~measured:gensor_vs_torch ~unit_:"x" ()

let run_edge () =
  Ctx.section "Fig. 9b — end-to-end models on the Orin Nano";
  let hw = Hardware.Presets.orin_nano in
  Fmt.pr
    "(Ansor excluded: search working set exceeds the 8 GB device, as in the \
     paper; GPT-2 excluded: does not fit)@.";
  let methods =
    [ Pipeline.Methods.pytorch (); Pipeline.Methods.roller ();
      Pipeline.Methods.gensor () ]
  in
  let reports = run_models ~hw methods (edge_models ()) in
  print_reports ~baseline_name:"Roller" reports;
  let gensor_vs_roller = geo_ratio reports ~of_:"Gensor" ~over:"Roller" in
  let gensor_vs_torch = geo_ratio reports ~of_:"Gensor" ~over:"PyTorch" in
  Fmt.pr "Gensor: %.2fx Roller, %.1fx PyTorch (paper: 1.19x, 2.6x)@."
    gensor_vs_roller gensor_vs_torch;
  Ctx.record ~experiment:"fig9b" ~quantity:"Gensor/Roller e2e speedup"
    ~paper:1.19 ~measured:gensor_vs_roller ~unit_:"x" ();
  Ctx.record ~experiment:"fig9b" ~quantity:"Gensor/PyTorch e2e speedup"
    ~paper:2.6 ~measured:gensor_vs_torch ~unit_:"x" ()
