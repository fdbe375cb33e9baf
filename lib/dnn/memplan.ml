(* Inter-op memory-reuse planner: tensor live ranges over the graph's
   topological order, the peak intermediate footprint, and a greedy
   first-fit arena assignment showing how much reuse the schedule admits.

   Each node's output is one intermediate tensor, born when the node runs
   (its topological position) and dead after its last consumer runs;
   network outputs stay live to the end.  Weights and network inputs are
   not graph nodes, so they are deliberately outside the plan — this is
   the *intermediate* footprint, the quantity inter-op scheduling can
   actually shrink.  [count]-folded repetitions reuse one buffer, so a
   node contributes its output bytes once. *)

type range = {
  node_id : int;
  node_name : string;
  bytes : int;
  born : int;  (* topological position producing the tensor *)
  dies : int;  (* last position reading it (inclusive) *)
  slot : int;  (* arena slot from the greedy first-fit assignment *)
}

type t = {
  ranges : range list;
  peak_bytes : int;
  peak_at : int;       (* topological position where the peak occurs *)
  total_bytes : int;   (* sum of all intermediates, i.e. no-reuse arena *)
  arena_bytes : int;   (* arena size after greedy slot reuse *)
  slots : int;
}

let plan g =
  let nodes = Array.of_list (Graph.nodes g) in
  let n = Array.length nodes in
  let bytes =
    Array.map
      (fun node ->
        Tensor_lang.Compute.output_bytes (Ops.Op.compute node.Graph.op))
      nodes
  in
  let dies =
    Array.map
      (function
        | [] -> n - 1  (* network output: live to the end *)
        | consumers -> List.fold_left max 0 consumers)
      (Graph.consumers g)
  in
  (* Peak: a running sum over positions; a tensor's bytes join at its
     birth and leave at the position after its last reader. *)
  let leaving = Array.make (n + 1) 0 in
  Array.iteri (fun i d -> leaving.(d + 1) <- leaving.(d + 1) + bytes.(i)) dies;
  let alive = ref 0 and peak = ref 0 and peak_at = ref 0 in
  for t = 0 to n - 1 do
    alive := !alive + bytes.(t) - leaving.(t);
    if !alive > !peak then begin
      peak := !alive;
      peak_at := t
    end
  done;
  (* Greedy first-fit arena: a tensor takes the lowest slot whose last
     tensor died before its birth; slot size grows to the max tensor it
     ever held. *)
  let slot_free_at = Array.make n 0 and slot_bytes = Array.make n 0 in
  let slots = ref 0 in
  let ranges =
    Array.init n (fun i ->
        let rec first_fit s =
          if s = !slots then begin
            incr slots;
            s
          end
          else if slot_free_at.(s) < i then s
          else first_fit (s + 1)
        in
        let slot = first_fit 0 in
        slot_free_at.(slot) <- dies.(i);
        slot_bytes.(slot) <- max bytes.(i) slot_bytes.(slot);
        { node_id = nodes.(i).Graph.id;
          node_name = nodes.(i).Graph.node_name;
          bytes = bytes.(i);
          born = i;
          dies = dies.(i);
          slot })
    |> Array.to_list
  in
  { ranges; peak_bytes = !peak; peak_at = !peak_at;
    total_bytes = Array.fold_left ( + ) 0 bytes;
    arena_bytes = Array.fold_left ( + ) 0 slot_bytes;
    slots = !slots }

let reuse_factor t =
  if t.arena_bytes = 0 then 1.0
  else float_of_int t.total_bytes /. float_of_int t.arena_bytes

let pp_bytes ppf b =
  if b >= 1 lsl 20 then Fmt.pf ppf "%.1f MiB" (float_of_int b /. 1048576.0)
  else if b >= 1 lsl 10 then Fmt.pf ppf "%.1f KiB" (float_of_int b /. 1024.0)
  else Fmt.pf ppf "%d B" b

let pp_range ppf r =
  Fmt.pf ppf "n%d %-24s %10s  live [%d..%d]  slot %d" r.node_id r.node_name
    (Fmt.str "%a" pp_bytes r.bytes)
    r.born r.dies r.slot

let pp ppf t =
  Fmt.pf ppf
    "@[<v>peak intermediate footprint %a (at position %d)@,\
     total intermediates %a in %d tensors; arena after reuse %a in %d \
     slots (%.2fx reuse)@]"
    pp_bytes t.peak_bytes t.peak_at pp_bytes t.total_bytes
    (List.length t.ranges) pp_bytes t.arena_bytes t.slots (reuse_factor t)

let pp_full ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]" pp t Fmt.(list ~sep:cut pp_range) t.ranges
