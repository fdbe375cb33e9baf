(* Graph-level epilogue fusion: fold pointwise tails (relu, bias-add,
   residual-add, affine normalisation stand-ins) into their matmul/conv
   anchors by composing the anchor's compute epilogue
   (Tensor_lang.Compute.fuse_epilogue).  Fusion is the highest-leverage
   graph pass (TVM; paper §V-C): every folded node is one kernel launch
   and one intermediate-tensor round-trip that no longer happens.

   Legality lives in two places: the compute-level composition refuses
   GSR-F01..F06 (reduction consumer, shape/dtype mismatch, non-pointwise
   consumption, non-identity seed, double epilogue), and this pass refuses
   GSR-F07 (anchor with multiple consumers — folding would recompute the
   anchor per consumer) and GSR-F08 (occurrence-count mismatch).  Refusals
   are recorded, not fatal: the node simply stays a separate kernel. *)

let c_folded = Trace.Counter.make "graph.fuse.folded"
let c_groups = Trace.Counter.make "graph.fuse.groups"
let c_refused = Trace.Counter.make "graph.fuse.refused"

type group = { anchor_id : int; anchor_name : string; folded : string list }
type refusal = { at : string; into : string; code : string; reason : string }

type result = {
  graph : Graph.t;
  groups : group list;
  refused : refusal list;
}

(* Working copy of the graph the pass rewrites in place; dead nodes (folded
   consumers) stay in the arrays and are compacted out at the end.
   [w_cons.(i)] lists [i]'s live consumers, ascending and without repeats;
   [apply_fold] keeps it exact. *)
type work = {
  w_op : Ops.Op.t array;
  w_name : string array;
  w_count : int array;
  w_deps : (string * int) list array;
  w_fused : string list array;
  w_alive : bool array;
  w_cons : int list array;
}

let work_of_graph g =
  let ns = Array.of_list (Graph.nodes g) in
  { w_op = Array.map (fun n -> n.Graph.op) ns;
    w_name = Array.map (fun n -> n.Graph.node_name) ns;
    w_count = Array.map (fun n -> n.Graph.count) ns;
    w_deps = Array.map (fun n -> n.Graph.deps) ns;
    w_fused = Array.map (fun n -> n.Graph.fused_from) ns;
    w_alive = Array.map (fun _ -> true) ns;
    w_cons = Graph.consumers g }

(* Fold consumer [e] into anchor [p] through edge [fed_input]; caller has
   already established candidacy.  [e]'s extra operands (renamed per the
   compute-level merge) and their producers now feed [p], and [e]'s
   consumers now read [p]. *)
let apply_fold w ~p ~e ~fed_input =
  match Ops.Op.fuse_epilogue w.w_op.(p) ~fed_input w.w_op.(e) with
  | Error _ as err -> err
  | Ok (fused, renames) ->
    w.w_op.(p) <- fused;
    w.w_fused.(p) <-
      w.w_fused.(p) @ (w.w_name.(e) :: w.w_fused.(e));
    let extra =
      List.filter_map
        (fun (in_name, q) ->
          if in_name = fed_input then None
          else
            match List.assoc_opt in_name renames with
            | Some renamed -> Some (renamed, q)
            | None -> Some (in_name, q))
        w.w_deps.(e)
    in
    w.w_deps.(p) <- w.w_deps.(p) @ extra;
    w.w_alive.(e) <- false;
    let without_e l = List.filter (fun c -> c <> e) l in
    List.iter
      (fun (_, q) ->
        w.w_cons.(q) <- List.sort_uniq compare (p :: without_e w.w_cons.(q)))
      extra;
    List.iter
      (fun c ->
        w.w_deps.(c) <-
          List.map (fun (i, q) -> if q = e then (i, p) else (i, q)) w.w_deps.(c))
      w.w_cons.(e);
    w.w_cons.(p) <-
      List.sort_uniq compare (without_e w.w_cons.(p) @ w.w_cons.(e));
    w.w_cons.(e) <- [];
    Ok ()

(* Candidate edge for folding consumer [e]: a dependency on a fusion anchor
   that [e] references exactly once.  Residual adds depend on two
   producers; the anchor-side edge is the one that can fold. *)
let candidate_edge w e =
  List.find_opt
    (fun (_, p) ->
      Ops.Op.is_fusion_anchor w.w_op.(p)
      && List.length (List.filter (fun (_, q) -> q = p) w.w_deps.(e)) = 1)
    w.w_deps.(e)

(* Pass-level candidacy checks, then the fold itself; shared by [fuse] and
   [try_fuse]. *)
let fold w ~p ~e ~fed_input =
  if w.w_cons.(p) <> [ e ] then
    Error
      ( "GSR-F07",
        Fmt.str "anchor %s has consumers other than %s; folding would \
                 duplicate its computation"
          w.w_name.(p) w.w_name.(e) )
  else if w.w_count.(p) <> w.w_count.(e) then
    Error
      ( "GSR-F08",
        Fmt.str "occurrence counts differ (%s x%d vs %s x%d)" w.w_name.(p)
          w.w_count.(p) w.w_name.(e) w.w_count.(e) )
  else apply_fold w ~p ~e ~fed_input

(* Compact the work arrays back into a graph: Kahn topological sort over
   the live nodes (merged residual operands can point forward in the old
   numbering), smallest ready old id first.  A node's indegree is its
   number of distinct producers, matching one decrement per entry of
   [w_cons], so a node that reads one producer twice still becomes
   ready. *)
let compact ~name ~batch w =
  let n = Array.length w.w_op in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun c -> indeg.(c) <- indeg.(c) + 1)) w.w_cons;
  let order = ref [] in
  let ready =
    ref
      (List.filter
         (fun i -> w.w_alive.(i) && indeg.(i) = 0)
         (List.init n Fun.id))
  in
  while !ready <> [] do
    match !ready with
    | [] -> ()
    | i :: rest ->
      ready := rest;
      order := i :: !order;
      List.iter
        (fun c ->
          indeg.(c) <- indeg.(c) - 1;
          if indeg.(c) = 0 then
            ready := List.merge compare [ c ] !ready)
        w.w_cons.(i)
  done;
  let order = List.rev !order in
  let remap = Array.make n (-1) in
  List.iteri (fun new_id old_id -> remap.(old_id) <- new_id) order;
  let nodes =
    List.mapi
      (fun new_id old_id ->
        { Graph.id = new_id;
          node_name = w.w_name.(old_id);
          op = w.w_op.(old_id);
          count = w.w_count.(old_id);
          deps = List.map (fun (i, p) -> (i, remap.(p))) w.w_deps.(old_id);
          fused_from = w.w_fused.(old_id) })
      order
  in
  Graph.of_nodes ~name ~batch nodes

(* One pass in topological order, each node visited once.  A fold
   rewires only the folded consumer's producers and consumers, so no later
   fold can turn a visited node into a candidate: a node refused with
   GSR-F07 keeps at least two live consumers on its anchor, and every other
   refusal depends on ops and counts that no later fold changes.  A second
   pass would fold nothing. *)
let fuse g =
  Trace.with_span ~name:"graph.fuse" @@ fun () ->
  let w = work_of_graph g in
  let refused = ref [] in
  for e = 0 to Array.length w.w_op - 1 do
    if Ops.Op.is_epilogue w.w_op.(e) then
      match candidate_edge w e with
      | None -> ()
      | Some (fed_input, p) -> (
        match fold w ~p ~e ~fed_input with
        | Ok () -> ()
        | Error (code, reason) ->
          Trace.Counter.incr c_refused;
          refused :=
            { at = w.w_name.(e); into = w.w_name.(p); code; reason }
            :: !refused)
  done;
  let graph = compact ~name:(Graph.name g) ~batch:(Graph.batch g) w in
  let groups =
    List.filter_map
      (fun n ->
        if n.Graph.fused_from = [] then None
        else
          Some
            { anchor_id = n.Graph.id;
              anchor_name = n.Graph.node_name;
              folded = n.Graph.fused_from })
      (Graph.nodes graph)
  in
  let folded =
    List.fold_left (fun acc grp -> acc + List.length grp.folded) 0 groups
  in
  Trace.Counter.add c_folded folded;
  Trace.Counter.add c_groups (List.length groups);
  { graph; groups; refused = List.rev !refused }

(* Single-edge entry point — the negative fixtures drive refusals through
   this directly (e.g. a pooling consumer refused with GSR-F01). *)
let try_fuse g ~anchor ~consumer =
  let w = work_of_graph g in
  if anchor < 0 || anchor >= Array.length w.w_op then
    Error ("GSR-F09", Fmt.str "no node %d" anchor)
  else if consumer < 0 || consumer >= Array.length w.w_op then
    Error ("GSR-F09", Fmt.str "no node %d" consumer)
  else begin
    match
      List.filter (fun (_, p) -> p = anchor) w.w_deps.(consumer)
    with
    | [] ->
      Error
        ( "GSR-F09",
          Fmt.str "%s does not consume %s" w.w_name.(consumer)
            w.w_name.(anchor) )
    | _ :: _ :: _ ->
      Error
        ( "GSR-F03",
          Fmt.str "%s consumes %s through multiple inputs"
            w.w_name.(consumer) w.w_name.(anchor) )
    | [ (fed_input, _) ] ->
      Result.map
        (fun () -> compact ~name:(Graph.name g) ~batch:(Graph.batch g) w)
        (fold w ~p:anchor ~e:consumer ~fed_input)
  end

let pp_group ppf grp =
  Fmt.pf ppf "n%d %s <- %s" grp.anchor_id grp.anchor_name
    (String.concat " + " grp.folded)

let pp_refusal ppf r =
  Fmt.pf ppf "%s: %s into %s refused: %s" r.code r.at r.into r.reason
