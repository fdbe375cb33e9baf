(* The construction loop — paper Algorithm 1.

   Starting from the unscheduled ETIR, the chain repeatedly draws a
   scheduling primitive from the Markov policy and applies it, halving the
   temperature each iteration until it crosses the threshold.  Visited states
   are sampled into [top_results] with the paper's temperature-dependent
   probability; the caller evaluates that sample (plus the final state) to
   pick the construction result. *)

open Sched

type config = {
  t0 : float;            (* initial temperature *)
  threshold : float;     (* stop when T falls below this *)
  mode : Policy.mode;
}

(* T halves each step, so t0/threshold = 2^150 gives ~150 construction
   iterations — the paper reports convergence around 100; ours needs a
   little more because large-extent tensors take ~13 doublings per
   dimension per level. *)
let default_config = {
  t0 = Float.pow 2.0 75.0;
  threshold = Float.pow 2.0 (-75.0);
  mode = Policy.graph_mode;
}

type outcome = {
  final : Etir.t;
  top_results : (Etir.t * Costmodel.Delta.components) list;
      (* sampled states with the component records that travelled along the
         construction edges, deduplicated, final first — the caller's final
         scoring pass starts from ready-made analyses *)
  steps : int;                (* policy evaluations performed *)
  transitions_taken : int;    (* steps that actually moved *)
}

(* The paper's top-result sampling probability,
   1 - 1 / (1 + e^{-0.5(-log T - 10)}), floored at 25%: the printed formula
   decays to ~0 at low temperature, which would leave the near-converged
   states — usually the best ones — out of the sample entirely. *)
let append_probability ~temperature =
  Float.max 0.25
    (1.0 -. (1.0 /. (1.0 +. exp (-0.5 *. (-.log temperature -. 10.0)))))

let run ~hw ~rng ?(config = default_config) etir0 =
  (* One span per chain; under the domain pool these land on the worker's
     own lane in the trace. *)
  Trace.with_span ~name:"anneal.run" @@ fun () ->
  (* Sampled states, deduplicated by construction identity.  Keys are the
     evaluation fingerprint (cached in the state) bucketed with the cursor
     (fingerprint excludes [cur_level]); together with [eval_equal] this is
     exactly the signature-string identity of the states, minus the ~3µs
     per sample the string build used to cost. *)
  let top : (int64, (Etir.t * Costmodel.Delta.components) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let consider etir comps =
    let key = Etir.fingerprint etir in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt top key) in
    if
      not
        (List.exists
           (fun (e, _) ->
             Etir.cur_level e = Etir.cur_level etir && Etir.eval_equal e etir)
           bucket)
    then Hashtbl.replace top key ((etir, comps) :: bucket)
  in
  (* [level_entry] is the iteration at which the chain entered the current
     memory level; the cache multiplier's clock restarts there.  [comps] is
     the current state's cost-model component record, carried edge to edge
     so each policy step starts from a ready-made before-state analysis
     (the incremental engine's steady state). *)
  (* The chain's own scoring workspace: chains on pool domains never share
     one. *)
  let ws = Policy.workspace etir0 in
  let rec loop etir comps temperature ~iteration ~level_entry ~moved =
    if temperature <= config.threshold then (etir, comps, iteration, moved)
    else begin
      let level_age = iteration - level_entry in
      let etir', comps', level_entry', moved' =
        match
          Policy.draw ws rng ~comps ~hw ~mode:config.mode
            ~iteration:level_age etir
        with
        | None -> (etir, comps, level_entry, moved)
        | Some choice ->
          if Rng.float rng < append_probability ~temperature then
            consider choice.Policy.next choice.Policy.next_comps;
          let entry =
            match choice.Policy.action with
            | Action.Cache -> iteration + 1
            | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ ->
              level_entry
          in
          (choice.Policy.next, choice.Policy.next_comps, entry, moved + 1)
      in
      loop etir' comps' (temperature /. 2.0) ~iteration:(iteration + 1)
        ~level_entry:level_entry' ~moved:moved'
    end
  in
  let final, final_comps, steps, transitions_taken =
    loop etir0
      (Costmodel.Delta.of_etir ~hw etir0)
      config.t0 ~iteration:0 ~level_entry:0 ~moved:0
  in
  consider final final_comps;
  (* Same identity as the [consider] dedup (cursor + evaluation class) — not
     [Etir.equal], whose signature-string build costs ~2µs per comparison
     and used to dominate the whole chain tail. *)
  let is_final etir =
    Etir.cur_level etir = Etir.cur_level final && Etir.eval_equal etir final
  in
  let top_results =
    (final, final_comps)
    :: (Hashtbl.fold (fun _ bucket acc -> List.rev_append bucket acc) top []
       |> List.filter (fun (etir, _) -> not (is_final etir)))
  in
  { final; top_results; steps; transitions_taken }
