(* Figs. 6 and 7 — the 32-operator suite, FLOPS relative to Ansor, on the
   cloud (RTX 4090) and edge (Orin Nano) presets. *)

type row = {
  label : string;
  cublas : float;  (* TFLOPS *)
  ansor : float;
  roller : float;
  gensor : float;
}

(* Every op x method cell compiles on the domain pool (the kernel grain);
   the cells are then regrouped per op. *)
let compile_suite ~hw =
  let cublas = Pipeline.Methods.cublas () in
  let ansor = Pipeline.Methods.ansor () in
  let roller = Pipeline.Methods.roller () in
  let gensor = Pipeline.Methods.gensor () in
  let ops =
    List.map
      (fun entry ->
        (entry.Workloads.Table_iv.label, entry.Workloads.Table_iv.op ()))
      Workloads.Table_iv.all
  in
  let cells =
    Pipeline.Methods.sweep ~devices:[ hw ]
      ~methods:[ cublas; ansor; roller; gensor ] ops
  in
  List.map
    (fun (label, _) ->
      let t method_ =
        let cell =
          List.find
            (fun c ->
              c.Pipeline.Methods.cell_label = label
              && c.Pipeline.Methods.cell_method = method_.Pipeline.Methods.name)
            cells
        in
        Ctx.tflops cell.Pipeline.Methods.cell_output
      in
      { label; cublas = t cublas; ansor = t ansor; roller = t roller;
        gensor = t gensor })
    ops

let print_rows rows =
  Report.Table.print
    (Report.Table.v
       ~headers:
         [ "op"; "cuBLAS/Ansor"; "Roller/Ansor"; "Gensor/Ansor";
           "Gensor TFLOPS" ]
       (List.map
          (fun r ->
            [ r.label;
              Report.Table.rel (r.cublas /. r.ansor);
              Report.Table.rel (r.roller /. r.ansor);
              Report.Table.rel (r.gensor /. r.ansor);
              Report.Table.fx2 r.gensor ])
          rows))

let summarise ~experiment rows =
  let ratios f = List.map f rows in
  let gensor_vs_roller = Ctx.mean (ratios (fun r -> r.gensor /. r.roller)) in
  let max_vs_roller =
    List.fold_left Float.max 0.0 (ratios (fun r -> r.gensor /. r.roller))
  in
  let gensor_vs_cublas = Ctx.mean (ratios (fun r -> r.gensor /. r.cublas)) in
  let gensor_vs_ansor = Ctx.mean (ratios (fun r -> r.gensor /. r.ansor)) in
  let wins_over_ansor =
    List.length (List.filter (fun r -> r.gensor > r.ansor *. 1.02) rows)
  in
  Fmt.pr
    "Gensor/Roller avg %.2fx (max %.2fx) | Gensor/Ansor avg %.2fx (beats \
     Ansor on %d/%d ops) | Gensor = %.0f%% of cuBLAS@."
    gensor_vs_roller max_vs_roller gensor_vs_ansor wins_over_ansor
    (List.length rows)
    (100. /. (1. /. gensor_vs_cublas));
  Ctx.record ~experiment ~quantity:"Gensor/Roller average speedup" ~paper:1.18
    ~measured:gensor_vs_roller ~unit_:"x" ();
  Ctx.record ~experiment ~quantity:"Gensor/Roller max speedup" ~paper:1.30
    ~measured:max_vs_roller ~unit_:"x" ();
  if experiment = "fig6" then
    Ctx.record ~experiment ~quantity:"Gensor as fraction of cuBLAS"
      ~paper:0.812 ~measured:gensor_vs_cublas ~unit_:"fraction" ()

let run () =
  Ctx.section "Fig. 6 — operator suite on the RTX 4090 (relative to Ansor)";
  let rows = compile_suite ~hw:Hardware.Presets.rtx4090 in
  print_rows rows;
  summarise ~experiment:"fig6" rows

let run_edge () =
  Ctx.section "Fig. 7 — operator suite on the Orin Nano (relative to Ansor)";
  let rows = compile_suite ~hw:Hardware.Presets.orin_nano in
  print_rows rows;
  summarise ~experiment:"fig7" rows
