(* End-to-end network evaluation (paper §V-C): compile every distinct kernel
   of a graph with one method, then charge each node its kernel time per
   occurrence.  Flat layer tables run through [Graph.of_model] with
   [~fuse:false], which charges exactly the per-op sum of the paper's
   harness.

   With [?store], each distinct kernel is first probed in the persistent
   artifact store under (device, method, compute) identity: a hit skips the
   optimisation entirely and charges zero compile time, a miss compiles and
   writes the result through — so a model's tuning cost is paid once per
   machine, not once per process. *)

let c_levels = Trace.Counter.make "graph.sched.levels"
let c_compiled = Trace.Counter.make "graph.sched.compiled"
let c_level_batches = Trace.Counter.make "graph.sched.batches"

type graph_report = {
  g_model : string;
  g_method : string;
  g_fused : bool;
  g_compile_wall_s : float;
  g_compile_sim_s : float;
  g_e2e_s : float;          (* end-to-end latency from the graph schedule *)
  g_critical_path_s : float;
  g_throughput : float;
  g_kernels : int;          (* distinct kernels compiled *)
  g_cached : int;
  g_nodes : int;
  g_fusion_groups : int;
  g_folded : int;           (* op instances folded into anchors *)
  g_refused : int;
  g_peak_bytes : int;       (* peak intermediate footprint *)
  g_sched_levels : int;
}

(* End-to-end evaluation over the graph: optionally fuse, plan memory, then
   compile kernels level by level — nodes within a Kahn level are
   independent, so their (deduplicated) kernels compile concurrently on the
   worker pool; results are order-deterministic, so reports are identical
   under any GENSOR_JOBS.  Latency is charged from the graph schedule:
   every node instance runs once per forward pass, so the end-to-end time
   is the sum over scheduled nodes of count x kernel time, and compile
   costs add up in first-occurrence node order (not level-completion
   order), so an unfused [Graph.of_model] lift reproduces the per-layer
   table sums bit for bit.  The dependency-weighted critical path is
   reported alongside for the concurrency headroom a multi-stream runtime
   could exploit. *)
let run_graph ?store ?jobs ?(fuse = true) ~hw
    (method_ : Pipeline.Methods.t) graph =
  Trace.with_span ~name:"graph.run" @@ fun () ->
  let fusion = if fuse then Some (Fusion.fuse graph) else None in
  let graph =
    match fusion with Some f -> f.Fusion.graph | None -> graph
  in
  let plan = Memplan.plan graph in
  let levels = Graph.levels graph in
  Trace.Counter.add c_levels (List.length levels);
  let cache : (string, Pipeline.Methods.output) Hashtbl.t =
    Hashtbl.create 64
  in
  let cached = ref 0 in
  let device_fp = Artifact.Gpu_codec.fingerprint hw in
  let probe_store compute =
    match store with
    | None -> None
    | Some store ->
      Option.map Pipeline.Methods.of_artifact
        (Artifact.Store.find store ~device_fingerprint:device_fp
           ~method_name:method_.Pipeline.Methods.name
           ~compute_fingerprint:(Artifact.Compute_codec.fingerprint compute))
  in
  List.iter
    (fun level ->
      (* Distinct not-yet-compiled ops of this level, in node order. *)
      let batch =
        List.filter_map
          (fun id ->
            let op = (Graph.node graph id).Graph.op in
            let key = Model.distinct_key op in
            if Hashtbl.mem cache key then None else Some (key, op))
          level
      in
      let batch =
        List.fold_left
          (fun acc (key, op) ->
            if List.mem_assoc key acc then acc else acc @ [ (key, op) ])
          [] batch
      in
      (* Store hits resolve inline; the rest compile concurrently. *)
      let to_compile =
        List.filter
          (fun (key, op) ->
            match probe_store (Ops.Op.compute op) with
            | Some output ->
              incr cached;
              Hashtbl.add cache key output;
              false
            | None -> true)
          batch
      in
      if to_compile <> [] then begin
        Trace.Counter.incr c_level_batches;
        let outputs =
          Parallel.Pool.map_auto ?jobs
            (fun (_, op) -> method_.Pipeline.Methods.compile ~hw op)
            to_compile
        in
        List.iter2
          (fun (key, _) output ->
            Option.iter
              (fun store ->
                ignore
                  (Artifact.Store.put store
                     (Pipeline.Methods.to_artifact
                        ~method_name:method_.Pipeline.Methods.name ~hw output)
                    : string))
              store;
            Trace.Counter.incr c_compiled;
            Hashtbl.add cache key output)
          to_compile outputs
      end)
    levels;
  let nodes = Graph.nodes graph in
  let keys = List.map (fun n -> Model.distinct_key n.Graph.op) nodes in
  let node_time n key =
    float_of_int n.Graph.count
    *. (Hashtbl.find cache key).Pipeline.Methods.metrics
         .Costmodel.Metrics.exec_time_s
  in
  let e2e_s =
    List.fold_left2 (fun acc n key -> acc +. node_time n key) 0.0 nodes keys
  in
  (* Store hits report zero cost, so every distinct kernel is charged once,
     at its first node. *)
  let charged = Hashtbl.create 64 in
  let compile_wall, compile_sim =
    List.fold_left
      (fun ((wall, sim) as acc) key ->
        if Hashtbl.mem charged key then acc
        else begin
          Hashtbl.add charged key ();
          let o = Hashtbl.find cache key in
          ( wall +. o.Pipeline.Methods.wall_s,
            sim +. Pipeline.Methods.simulated_opt_time o )
        end)
      (0.0, 0.0) keys
  in
  let finish = Array.make (Graph.size graph) 0.0 in
  List.iter2
    (fun n key ->
      let ready =
        List.fold_left (fun acc (_, p) -> Float.max acc finish.(p)) 0.0
          n.Graph.deps
      in
      finish.(n.Graph.id) <- ready +. node_time n key)
    nodes keys;
  let critical = Array.fold_left Float.max 0.0 finish in
  { g_model = Graph.name graph;
    g_method = method_.Pipeline.Methods.name;
    g_fused = fuse;
    g_compile_wall_s = compile_wall;
    g_compile_sim_s = compile_sim;
    g_e2e_s = e2e_s;
    g_critical_path_s = critical;
    g_throughput = float_of_int (Graph.batch graph) /. e2e_s;
    g_kernels = Hashtbl.length cache;
    g_cached = !cached;
    g_nodes = Graph.size graph;
    g_fusion_groups =
      (match fusion with
      | Some f -> List.length f.Fusion.groups
      | None -> 0);
    g_folded =
      (match fusion with
      | Some f ->
        List.fold_left
          (fun acc grp -> acc + List.length grp.Fusion.folded)
          0 f.Fusion.groups
      | None -> 0);
    g_refused =
      (match fusion with
      | Some f -> List.length f.Fusion.refused
      | None -> 0);
    g_peak_bytes = plan.Memplan.peak_bytes;
    g_sched_levels = List.length levels }

let pp_graph_report ppf r =
  Fmt.pf ppf
    "%-12s %-14s %-8s e2e %8.3f ms (cp %8.3f) | %8.1f items/s | opt %8.1f s \
     (sim) | %d kernels / %d nodes | %d fused%s | peak %a"
    r.g_model r.g_method
    (if r.g_fused then "fused" else "unfused")
    (r.g_e2e_s *. 1e3)
    (r.g_critical_path_s *. 1e3)
    r.g_throughput r.g_compile_sim_s r.g_kernels r.g_nodes r.g_folded
    (if r.g_cached > 0 then Fmt.str " (%d from store)" r.g_cached else "")
    Memplan.pp_bytes r.g_peak_bytes

(* Table-IV-style fused vs unfused comparison on one graph. *)
type fusion_comparison = {
  fc_fused : graph_report;
  fc_unfused : graph_report;
}

let compare_fusion ?store ?jobs ~hw method_ graph =
  let fc_unfused = run_graph ?store ?jobs ~fuse:false ~hw method_ graph in
  let fc_fused = run_graph ?store ?jobs ~fuse:true ~hw method_ graph in
  { fc_fused; fc_unfused }

let fusion_speedup c = c.fc_unfused.g_e2e_s /. c.fc_fused.g_e2e_s
