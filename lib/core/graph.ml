(* Explicit construction-graph exploration.

   Used by the Fig. 1 demonstration, the §IV-D analysis and the test suite:
   enumerate the states reachable from a seed within a bounded number of
   action applications, deduplicated by signature. *)

open Sched

type t = {
  states : Etir.t array;
  index_of : (string, int) Hashtbl.t;
  edges : (int * Action.t * int) list;  (* (from, action, to) *)
  pruned : int;  (* states recorded but not expanded (dominance pruning) *)
}

let c_pruned = Trace.Counter.make "graph.pruned"
let c_states = Trace.Counter.make "graph.states"

let explore ?(max_states = 2000) ?(max_depth = max_int) ?prune_hw seed_state =
  Trace.with_span ~name:"graph.explore"
    ~args:[ ("max_states", string_of_int max_states) ]
  @@ fun () ->
  let index_of = Hashtbl.create 256 in
  let states = ref [] in
  let edges = ref [] in
  let count = ref 0 in
  let pruned = ref 0 in
  let intern etir =
    let key = Etir.signature etir in
    match Hashtbl.find_opt index_of key with
    | Some idx -> (idx, false)
    | None ->
      let idx = !count in
      incr count;
      Hashtbl.add index_of key idx;
      states := etir :: !states;
      (idx, true)
  in
  (* Dominance pruning (DESIGN.md §10): a fresh state pointwise no better
     than a state already enqueued at the same depth is recorded — it stays
     visible to [best] and the edge list — but not expanded.  Launch-
     infeasible states have no vector and are always expanded: construction
     passes through them transiently.  Component records travel along the
     BFS edges ([Delta.child]), so the vector never pays a full per-state
     rebuild. *)
  let depth_vecs : (int, float array list) Hashtbl.t = Hashtbl.create 16 in
  let keep_for_expansion depth comps =
    match (prune_hw, comps) with
    | None, _ | _, None -> true
    | Some hw, Some comps ->
      (match Costmodel.Delta.dominance_vector ~hw comps with
      | None -> true
      | Some vec ->
        let siblings =
          Option.value ~default:[] (Hashtbl.find_opt depth_vecs depth)
        in
        if List.exists (fun v -> Costmodel.Delta.dominates v vec) siblings
        then begin
          incr pruned;
          false
        end
        else begin
          Hashtbl.replace depth_vecs depth (vec :: siblings);
          true
        end)
  in
  (* Components only exist against a device; without [prune_hw] the BFS
     carries none (and no gate needs them). *)
  let child_comps etir comps action next =
    match (prune_hw, comps) with
    | Some hw, Some parent ->
      Some (Costmodel.Delta.child ~hw ~before:etir ~parent ~action next)
    | _ -> None
  in
  let queue = Queue.create () in
  let seed_comps =
    Option.map (fun hw -> Costmodel.Delta.of_etir ~hw seed_state) prune_hw
  in
  let seed_idx, _ = intern seed_state in
  ignore (keep_for_expansion 0 seed_comps);
  Queue.add (seed_idx, seed_state, seed_comps, 0) queue;
  while not (Queue.is_empty queue) do
    let idx, etir, comps, depth = Queue.pop queue in
    if depth < max_depth then
      List.iter
        (fun (action, next) ->
          if !count < max_states then begin
            let next_idx, fresh = intern next in
            edges := (idx, action, next_idx) :: !edges;
            if fresh then begin
              let next_comps = child_comps etir comps action next in
              if keep_for_expansion (depth + 1) next_comps then
                Queue.add (next_idx, next, next_comps, depth + 1) queue
            end
          end)
        (Action.successors etir)
  done;
  Trace.Counter.add c_pruned !pruned;
  Trace.Counter.add c_states !count;
  { states = Array.of_list (List.rev !states); index_of;
    edges = List.rev !edges; pruned = !pruned }

let size t = Array.length t.states
let edges t = t.edges
let state t idx = t.states.(idx)
let pruned_states t = t.pruned

let index t etir = Hashtbl.find_opt t.index_of (Etir.signature etir)

(* Best state in the explored region under the performance model.  Score
   ties break toward the smallest signature, so the result is a canonical
   representative independent of discovery order (and hence of dominance
   pruning, which may change which of several exactly-tied states gets
   recorded first). *)
let best ~hw ?knobs t =
  let best = ref None in
  Array.iter
    (fun etir ->
      if Costmodel.Mem_check.ok etir ~hw then begin
        let metrics = Costmodel.Model.evaluate ?knobs ~hw etir in
        let better =
          match !best with
          | None -> true
          | Some (be, m) ->
            let c =
              compare (Costmodel.Metrics.score metrics)
                (Costmodel.Metrics.score m)
            in
            c > 0 || (c = 0 && Etir.signature etir < Etir.signature be)
        in
        if better then best := Some (etir, metrics)
      end)
    t.states;
  !best

(* Strongly-connected check restricted to non-cache edges: are all same-level
   states mutually reachable (the paper's same-level irreducibility)? *)
let same_level_mutually_reachable t =
  let n = size t in
  if n = 0 then true
  else begin
    let adj = Array.make n [] and radj = Array.make n [] in
    List.iter
      (fun (src, action, dst) ->
        match action with
        | Action.Cache -> ()
        | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ ->
          adj.(src) <- dst :: adj.(src);
          radj.(dst) <- src :: radj.(dst))
      t.edges;
    let reach graph start =
      let seen = Array.make n false in
      let rec go idx =
        if not seen.(idx) then begin
          seen.(idx) <- true;
          List.iter go graph.(idx)
        end
      in
      go start;
      seen
    in
    let level0 = Etir.cur_level t.states.(0) in
    let fwd = reach adj 0 and bwd = reach radj 0 in
    (* Every state at the seed's level reachable from the seed must be able
       to return to it. *)
    let ok = ref true in
    Array.iteri
      (fun idx etir ->
        if Etir.cur_level etir = level0 && fwd.(idx) && not bwd.(idx) then
          ok := false)
      t.states;
    !ok
  end
