(* Greedy model-guided local search over the scheduling action edges.

   Shared by consumers that refine an already-chosen configuration: Gensor's
   final selection and the vendor oracle's per-shape kernel tuning.  Follows
   the steepest strictly-improving edge until a local optimum or the budget
   runs out. *)

let greedy ?(knobs = Model.default_knobs) ?(budget = 32) ?metrics ~hw etir =
  Trace.with_span ~name:"polish.greedy"
    ~args:[ ("budget", string_of_int budget) ]
  @@ fun () ->
  let evaluated = ref 0 in
  (* The walk follows action edges, so each neighbour's components derive
     incrementally from the current state's; the legality check and the
     model aggregation both read the derived record instead of re-analysing
     the neighbour from scratch. *)
  let rec step etir comps metrics budget =
    if budget = 0 then (etir, metrics)
    else begin
      let improved =
        List.fold_left
          (fun acc (action, next) ->
            let next_comps =
              Delta.child ~hw ~before:etir ~parent:comps ~action next
            in
            if
              not (Mem_check.ok_fp next ~hw ~footprints:next_comps.Delta.footprint)
            then acc
            else begin
              incr evaluated;
              let m = Model.evaluate_with ~knobs ~hw next next_comps in
              match acc with
              | Some (_, _, best) when Metrics.score best >= Metrics.score m ->
                acc
              | Some _ | None ->
                if Metrics.score m > Metrics.score metrics then
                  Some (next, next_comps, m)
                else acc
            end)
          None
          (Sched.Action.successors etir)
      in
      match improved with
      | Some (next, next_comps, m) -> step next next_comps m (budget - 1)
      | None -> (etir, metrics)
    end
  in
  let comps = Delta.of_etir ~hw etir in
  (* Callers that already scored the start state pass its metrics in,
     avoiding a duplicate evaluation of the search leader. *)
  let metrics =
    match metrics with
    | Some m -> m
    | None ->
      incr evaluated;
      Model.evaluate_with ~knobs ~hw etir comps
  in
  let etir, metrics = step etir comps metrics budget in
  (etir, metrics, !evaluated)
