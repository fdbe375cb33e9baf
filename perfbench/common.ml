(* Types and helpers shared by the three workloads. *)

(* What one op reports besides its latency. *)
type outcome = {
  failures : string list;  (** failed output checks; [] when the op is correct *)
  sim_ms : float;  (** simulated GPU latency of what the op compiled or ran *)
  facts : (string * int) list;
      (** deterministic counts the self-check compares across ops *)
}

(* A workload after set-up.  The loop times [reset] and [op] together and
   runs [tidy] untimed after every op. *)
type instance = {
  reset : unit -> unit;
  op : unit -> outcome;
  tidy : unit -> unit;
}

let hw = Hardware.Presets.rtx4090

(* The search seed is the workload seed: every op of a run searches with
   the same stream, so its schedules and state counts repeat exactly. *)
let gensor ~seed =
  let config = { Gensor.Optimizer.default_config with seed } in
  (config, Pipeline.Methods.gensor ~config ())

(* Distinct kernels of a graph in node (topological) order, deduplicated
   the way [Dnn.Runner.run_graph] dedupes them. *)
let distinct_ops graph =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun n ->
      let op = n.Dnn.Graph.op in
      let key = Dnn.Model.distinct_key op in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some op
      end)
    (Dnn.Graph.nodes graph)

let fused graph = (Dnn.Fusion.fuse graph).Dnn.Fusion.graph

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A directory name not used before in this process. *)
let fresh_dir =
  let n = ref 0 in
  fun root ->
    incr n;
    Filename.concat root (Printf.sprintf "store-%d" !n)

let counter name = Option.value ~default:0 (Trace.Counter.find name)
