(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §3 for the index).

   Usage: main.exe [experiment ...]
   with experiments among fig1 fig6 fig7 tab5 tab6 fig8 fig9a fig9b fig10
   fig11 fig12 mem ablation dyn exec; no argument runs them all. *)

let experiments =
  [ ("fig1", Fig1.run); ("fig6", Fig6.run); ("fig7", Fig6.run_edge);
    ("tab5", Tab5.run); ("tab6", Tab6.run); ("fig8", Fig8.run);
    ("fig9a", Fig9.run); ("fig9b", Fig9.run_edge); ("fig10", Fig10.run);
    ("fig11", Fig11.run); ("fig12", Fig12.run); ("mem", Mem_overhead.run); ("ablation", Ablation.run); ("dyn", Dyn_cache.run);
    ("exec", Exec_tier.run) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Fmt.epr "unknown experiment %s (available: %s)@." name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  let comparisons = Ctx.all_comparisons () in
  if comparisons <> [] then begin
    Ctx.section "Paper vs. measured summary";
    Report.Compare.print_all comparisons
  end;
  Fmt.pr "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0)
