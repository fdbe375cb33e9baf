(* Fig. 11 — BERT-small with dynamic sequence lengths, relative to Roller:
   PyTorch, DietCode (bucketed pre-tuning) and Gensor (per-shape
   construction).  Paper: Gensor 1.17x Roller and 2.1x PyTorch on average;
   DietCode reaches 83% of Gensor's performance with cheaper total tuning. *)

let seqs = [ 64; 128; 192; 256 ]
let batch = 8

let run () =
  Ctx.section "Fig. 11 — BERT-small with dynamic shapes (RTX 4090)";
  let hw = Hardware.Presets.rtx4090 in
  let per_shape m = Dnn.Dynamic.bert_per_shape ~hw m ~batch ~seqs in
  let torch = per_shape (Pipeline.Methods.pytorch ()) in
  let roller = per_shape (Pipeline.Methods.roller ()) in
  let gensor = per_shape (Pipeline.Methods.gensor ()) in
  let dietcode = Dnn.Dynamic.bert_dietcode ~hw ~batch ~seqs () in
  let all = [ torch; roller; dietcode; gensor ] in
  Report.Table.print
    (Report.Table.v
       ~headers:[ "shape"; "method"; "k items/s"; "vs Roller" ]
       (List.concat
          (List.map2
             (fun baseline idx ->
               List.map
                 (fun series ->
                   let r = List.nth series idx in
                   [ r.Dnn.Dynamic.shape_label; r.Dnn.Dynamic.method_name;
                     Fmt.str "%.2f" (r.Dnn.Dynamic.throughput /. 1e3);
                     Report.Table.rel
                       (r.Dnn.Dynamic.throughput
                       /. baseline.Dnn.Dynamic.throughput) ])
                 all)
             roller
             (List.init (List.length seqs) Fun.id))));
  let avg_ratio series =
    Ctx.mean
      (List.map2
         (fun r b -> r.Dnn.Dynamic.throughput /. b.Dnn.Dynamic.throughput)
         series roller)
  in
  let gensor_vs_roller = avg_ratio gensor in
  let gensor_vs_torch =
    Ctx.mean
      (List.map2
         (fun g t -> g.Dnn.Dynamic.throughput /. t.Dnn.Dynamic.throughput)
         gensor torch)
  in
  let dietcode_of_gensor =
    Ctx.mean
      (List.map2
         (fun d g -> d.Dnn.Dynamic.throughput /. g.Dnn.Dynamic.throughput)
         dietcode gensor)
  in
  let total_opt series =
    List.fold_left (fun acc r -> acc +. r.Dnn.Dynamic.opt_sim_s) 0.0 series
  in
  Fmt.pr
    "Gensor: %.2fx Roller, %.2fx PyTorch | DietCode reaches %.0f%% of Gensor \
     | total tuning: DietCode %.0f s, Gensor %.0f s@."
    gensor_vs_roller gensor_vs_torch
    (100. *. dietcode_of_gensor)
    (total_opt dietcode) (total_opt gensor);
  Ctx.record ~experiment:"fig11" ~quantity:"Gensor/Roller dynamic speedup"
    ~paper:1.17 ~measured:gensor_vs_roller ~unit_:"x" ();
  Ctx.record ~experiment:"fig11" ~quantity:"Gensor/PyTorch dynamic speedup"
    ~paper:2.1 ~measured:gensor_vs_torch ~unit_:"x" ();
  Ctx.record ~experiment:"fig11" ~quantity:"DietCode as fraction of Gensor"
    ~paper:0.83 ~measured:dietcode_of_gensor ~unit_:"fraction" ()
