(* Search-based auto-scheduling baseline, modelled on Ansor (OSDI'20).

   Ansor samples complete schedule "sketches" and refines them with an
   evolutionary loop, measuring candidates on the target device.  Our stand-in
   keeps the two properties the paper's comparison depends on:

   - quality: with thousands of trials scored by the same performance model,
     the search closes in on the model's optimum;
   - cost: every evaluated candidate corresponds to a hardware measurement in
     the real system, so optimisation time is proportional to [trials] (the
     bench harness charges a per-trial measurement cost; Fig. 8's 3-5 orders
     of magnitude gap comes from exactly this).

   Tile sizes are drawn from powers of two only — Ansor's regular splits.
   On heavily unbalanced shapes this leaves the good region of the space a
   vanishingly small target for random sampling/mutation, reproducing the
   paper's Table V observation. *)

open Sched

type config = {
  seed : int;
  n_trials : int;       (* total candidate evaluations (= measurements) *)
  population : int;
  mutation_rate : float;
  batch : int;          (* candidates generated per generation *)
}

let default_config =
  { seed = 42; n_trials = 2000; population = 64; mutation_rate = 0.3;
    batch = 32 }

type result = {
  etir : Etir.t;
  metrics : Costmodel.Metrics.t;
  trials : int;  (* candidates actually evaluated *)
  wall_time_s : float;
}

(* Powers of two up to [n] (always includes 1). *)
let pow2s_upto n =
  let rec go p acc = if p > n then List.rev acc else go (p * 2) (p :: acc) in
  go 1 []

(* A genome fixes, per spatial dim, the (thread, block, wave) tile chain and
   a vthread count; per reduce dim, the per-level reduce chain. *)
type genome = {
  stiles : (int * int * int) array;
  rtiles : (int * int * int) array;
  vthreads : int array;
}

let sample_chain rng extent =
  let opts = pow2s_upto extent in
  let pick () = Rng.choice rng opts in
  let a = pick () and b = pick () and c = pick () in
  let sorted = List.sort compare [ a; b; c ] in
  match sorted with
  | [ t0; t1; t2 ] -> (t0, t1, t2)
  | _ -> assert false

let sample_genome rng etir0 =
  let sext = Etir.spatial_extents etir0 and rext = Etir.reduce_extents etir0 in
  let stiles = Array.map (sample_chain rng) sext in
  let rtiles = Array.map (sample_chain rng) rext in
  let vthreads =
    Array.map (fun (t0, _, _) -> Rng.choice rng (pow2s_upto t0)) stiles
  in
  { stiles; rtiles; vthreads }

let to_etir etir0 genome =
  let etir = ref (Etir.with_cur_level etir0 0) in
  Array.iteri
    (fun dim (t0, t1, t2) ->
      etir := Etir.with_stile !etir ~level:0 ~dim t0;
      etir := Etir.with_stile !etir ~level:1 ~dim t1;
      etir := Etir.with_stile !etir ~level:2 ~dim t2;
      ())
    genome.stiles;
  Array.iteri
    (fun dim (r0, r1, r2) ->
      etir := Etir.with_rtile !etir ~level:0 ~dim r0;
      etir := Etir.with_rtile !etir ~level:1 ~dim r1;
      etir := Etir.with_rtile !etir ~level:2 ~dim r2;
      ())
    genome.rtiles;
  Array.iteri
    (fun dim v -> etir := Etir.with_vthread !etir ~dim v)
    genome.vthreads;
  !etir

let mutate rng etir0 genome =
  let sext = Etir.spatial_extents etir0 and rext = Etir.reduce_extents etir0 in
  let g =
    { stiles = Array.copy genome.stiles;
      rtiles = Array.copy genome.rtiles;
      vthreads = Array.copy genome.vthreads }
  in
  let n_s = Array.length sext and n_r = Array.length rext in
  let slot = Rng.int rng (max 1 (n_s + n_r)) in
  if slot < n_s then begin
    g.stiles.(slot) <- sample_chain rng sext.(slot);
    let t0, _, _ = g.stiles.(slot) in
    g.vthreads.(slot) <- Rng.choice rng (pow2s_upto t0)
  end
  else if n_r > 0 then begin
    let dim = slot - n_s in
    g.rtiles.(dim) <- sample_chain rng rext.(dim)
  end;
  g

let crossover rng a b =
  { stiles =
      Array.mapi (fun i ta -> if Rng.bool rng then ta else b.stiles.(i)) a.stiles;
    rtiles =
      Array.mapi (fun i ra -> if Rng.bool rng then ra else b.rtiles.(i)) a.rtiles;
    vthreads =
      Array.mapi
        (fun i va -> if Rng.bool rng then va else b.vthreads.(i))
        a.vthreads }

(* Vthreads legality depends on the thread tile the genome carries. *)
let normalise genome =
  { genome with
    vthreads =
      Array.mapi
        (fun i v ->
          let t0, _, _ = genome.stiles.(i) in
          min v t0)
        genome.vthreads }

(* The evolutionary loop is generational: each generation draws a batch of
   children from the current population (all RNG-driven choices made
   sequentially, in child order), scores the whole batch — the step that
   models Ansor's parallel hardware measurements, and the one fanned over
   the domain pool — and then applies best/replacement updates sequentially
   in batch order.  Every RNG draw and every population update happens on
   the coordinating domain in a fixed order, so results are bit-identical
   for any [jobs] value. *)
let search ?(config = default_config) ?knobs ?jobs ~hw compute =
  let start = Unix.gettimeofday () in
  let knobs = Option.value knobs ~default:Costmodel.Model.default_knobs in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.Pool.default_jobs ()
  in
  let levels = Hardware.Gpu_spec.schedulable_cache_levels hw in
  let etir0 = Etir.create ~num_levels:levels compute in
  let rng = Rng.create ~seed:config.seed in
  let trials = ref 0 in
  let best = ref None in
  let best_genome = ref None in
  (* Pure fitness of a genome (safe to run on any domain).  Each evaluation
     is one trial: infeasible candidates burn theirs too (Ansor discovers
     infeasibility by failing to build/run the kernel). *)
  let evaluate genome =
    let etir = to_etir etir0 (normalise genome) in
    if not (Costmodel.Mem_check.ok etir ~hw) then (etir, None, neg_infinity)
    else begin
      let metrics = Costmodel.Model.evaluate ~knobs ~hw etir in
      (etir, Some metrics, Costmodel.Metrics.score metrics)
    end
  in
  (* Sequential post-pass over a scored batch: incumbent update (first-seen
     wins ties, as in the steady-state loop). *)
  let register genome (etir, metrics_opt, score) =
    incr trials;
    match metrics_opt with
    | None -> ()
    | Some metrics ->
      (match !best with
       | Some (_, _, best_score) when best_score >= score -> ()
       | Some _ | None ->
         best := Some (etir, metrics, score);
         best_genome := Some genome)
  in
  let pop_size = max 4 config.population in
  (* Initial population: genomes sampled sequentially (fixed RNG order),
     scored as one parallel batch. *)
  let init_genomes =
    let rec sample n acc =
      if n = 0 then List.rev acc
      else sample (n - 1) (sample_genome rng etir0 :: acc)
    in
    sample pop_size []
  in
  let init_scores = Parallel.Pool.map_auto ~jobs evaluate init_genomes in
  List.iter2 register init_genomes init_scores;
  let population =
    Array.of_list
      (List.map2 (fun g (_, _, f) -> (g, f)) init_genomes init_scores)
  in
  let tournament () =
    let a = Rng.int rng pop_size and b = Rng.int rng pop_size in
    let ga, fa = population.(a) and gb, fb = population.(b) in
    if fa >= fb then ga else gb
  in
  let batch_size = max 1 config.batch in
  while !trials < config.n_trials do
    (* Clamp the generation to the remaining budget so the trial count
       stays within the configured bound. *)
    let n = min batch_size (config.n_trials - !trials) in
    let children =
      let rec gen k acc =
        if k = 0 then List.rev acc
        else begin
          (* Exploit the incumbent a third of the time; otherwise explore
             the population by tournament. *)
          let parent =
            match !best_genome with
            | Some g when Rng.float rng < 0.33 -> g
            | Some _ | None -> tournament ()
          in
          let child =
            if Rng.float rng < config.mutation_rate then
              mutate rng etir0 parent
            else crossover rng parent (tournament ())
          in
          gen (k - 1) (child :: acc)
        end
      in
      gen n []
    in
    let scores = Parallel.Pool.map_auto ~jobs evaluate children in
    List.iter2
      (fun child ((_, _, f) as scored) ->
        register child scored;
        (* Replace the loser of a random pair to keep the population
           fresh. *)
        let victim =
          let a = Rng.int rng pop_size and b = Rng.int rng pop_size in
          let _, fa = population.(a) and _, fb = population.(b) in
          if fa <= fb then a else b
        in
        if f > snd population.(victim) then population.(victim) <- (child, f))
      children scores
  done;
  let etir, metrics =
    match !best with
    | Some (etir, metrics, _) -> (etir, metrics)
    | None ->
      let etir = etir0 in
      (etir, Costmodel.Model.evaluate ~knobs ~hw etir)
  in
  { etir; metrics; trials = !trials;
    wall_time_s = Unix.gettimeofday () -. start }
