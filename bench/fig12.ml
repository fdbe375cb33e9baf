(* Fig. 12 — optimisation/inference timeline when a model's channel widths
   are adjusted between inference phases.  The paper's setting is "a typical
   edge inference setting" processing 2000 batches of [128,1,224,224] images
   per phase, so this runs MobileNetV2 on the Orin Nano preset.  Paper:
   Gensor's total is the shortest; Ansor's optimisation time dwarfs the
   chart. *)

let batch = 128
let phases =
  List.map
    (fun p -> { p with Dnn.Dynamic.images = 2000 * batch })
    Dnn.Dynamic.default_phases

let run () =
  Ctx.section
    "Fig. 12 — dynamic channel adjustment timeline (MobileNetV2, Orin Nano)";
  let hw = Hardware.Presets.orin_nano in
  let timelines =
    List.map
      (fun m -> Dnn.Dynamic.mobilenet_timeline ~hw m ~batch ~phases ())
      [ Pipeline.Methods.pytorch (); Pipeline.Methods.ansor ~n_trials:500 ();
        Pipeline.Methods.roller (); Pipeline.Methods.gensor () ]
  in
  Report.Table.print
    (Report.Table.v
       ~headers:[ "method"; "phase"; "opt (s)"; "infer (s)" ]
       (List.concat_map
          (fun tl ->
            List.map
              (fun seg ->
                [ tl.Dnn.Dynamic.timeline_method; seg.Dnn.Dynamic.phase_label;
                  Fmt.str "%.1f" seg.Dnn.Dynamic.opt_s;
                  Fmt.str "%.2f" seg.Dnn.Dynamic.infer_s ])
              tl.Dnn.Dynamic.segments)
          timelines));
  Report.Table.print
    (Report.Table.v
       ~headers:[ "method"; "total opt+infer (s)" ]
       (List.map
          (fun tl ->
            [ tl.Dnn.Dynamic.timeline_method;
              Fmt.str "%.1f" tl.Dnn.Dynamic.total_s ])
          timelines));
  let total name =
    (List.find (fun tl -> tl.Dnn.Dynamic.timeline_method = name) timelines)
      .Dnn.Dynamic.total_s
  in
  let gensor = total "Gensor" in
  let shortest =
    List.for_all (fun tl -> tl.Dnn.Dynamic.total_s >= gensor -. 1e-9) timelines
  in
  Fmt.pr "Gensor has the shortest total: %b (paper: yes)@." shortest;
  Ctx.record ~experiment:"fig12" ~quantity:"Gensor total is shortest (1=yes)"
    ~paper:1.0
    ~measured:(if shortest then 1.0 else 0.0)
    ~unit_:"bool" ();
  Ctx.record ~experiment:"fig12" ~quantity:"Roller/Gensor total-time ratio"
    ~measured:(total "Roller" /. gensor) ~unit_:"x" ()
