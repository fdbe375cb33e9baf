(* Graph IR above lib/ops: nodes are operators, edges are tensor
   dependencies (which producer feeds which named input of the consumer).
   This is the unit the end-to-end path optimizes — fusion rewrites the
   graph, the memory planner walks its live ranges, and the runner charges
   each node its kernel time (paper §V-C).

   Nodes are stored in topological order by construction: the builder only
   accepts dependencies on already-added nodes, so node ids double as a
   valid schedule position.  [count] plays the same role as in
   {!Model.layer}: the node's kernel is charged [count] times in the
   end-to-end latency while appearing once in the graph. *)

type node = {
  id : int;
  node_name : string;
  op : Ops.Op.t;
  count : int;
  deps : (string * int) list;  (* compute input name -> producer node id *)
  fused_from : string list;    (* layer names folded into this node *)
}

type t = { name : string; batch : int; nodes : node array }

let name t = t.name
let batch t = t.batch
let size t = Array.length t.nodes
let nodes t = Array.to_list t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Fmt.str "Graph.node: no node %d in %s" id t.name);
  t.nodes.(id)

let output_shape_of op = Tensor_lang.Compute.output_shape (Ops.Op.compute op)

(* ---------- builder ---------- *)

type builder = {
  b_name : string;
  b_batch : int;
  mutable rev_nodes : node list;
  mutable next : int;
}

let builder ~name ~batch =
  if batch <= 0 then invalid_arg "Graph.builder: batch <= 0";
  { b_name = name; b_batch = batch; rev_nodes = []; next = 0 }

(* A producer may legally feed a consumer whose declared input is larger
   (convolutions fold padding into the declared input shape), so edges
   require equal rank and producer dims <= declared dims. *)
let shape_feeds ~producer ~declared =
  List.length producer = List.length declared
  && List.for_all2 (fun p d -> p <= d) producer declared

let check_edge b ~node_name ~op (in_name, pid) =
  if pid < 0 || pid >= b.next then
    invalid_arg
      (Fmt.str "Graph.add: %s depends on unknown node %d" node_name pid);
  let compute = Ops.Op.compute op in
  match
    List.find_opt
      (fun i -> i.Tensor_lang.Compute.in_name = in_name)
      (Tensor_lang.Compute.inputs compute)
  with
  | None ->
    invalid_arg
      (Fmt.str "Graph.add: %s has no input %s" node_name in_name)
  | Some input ->
    let producer = List.nth b.rev_nodes (b.next - 1 - pid) in
    let pshape = output_shape_of producer.op in
    if not (shape_feeds ~producer:pshape ~declared:input.in_shape) then
      invalid_arg
        (Fmt.str
           "Graph.add: %s input %s declared [%a] cannot be fed by %s output \
            [%a]"
           node_name in_name
           Fmt.(list ~sep:(any ";") int)
           input.in_shape producer.node_name
           Fmt.(list ~sep:(any ";") int)
           pshape)

let add b ?(count = 1) ?(deps = []) node_name op =
  if count < 1 then invalid_arg "Graph.add: count < 1";
  let names = List.map fst deps in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg (Fmt.str "Graph.add: %s has duplicate dep inputs" node_name);
  List.iter (check_edge b ~node_name ~op) deps;
  let id = b.next in
  b.rev_nodes <-
    { id; node_name; op; count; deps; fused_from = [] } :: b.rev_nodes;
  b.next <- id + 1;
  id

let build b =
  if b.rev_nodes = [] then invalid_arg "Graph.build: no nodes";
  { name = b.b_name; batch = b.b_batch;
    nodes = Array.of_list (List.rev b.rev_nodes) }

(* Rebuild a graph from already-validated nodes in topological order,
   re-running every builder check (used by the fusion pass). *)
let of_nodes ~name ~batch nodes =
  let b = builder ~name ~batch in
  List.iter
    (fun n ->
      let id = add b ~count:n.count ~deps:n.deps n.node_name n.op in
      b.rev_nodes <-
        (match b.rev_nodes with
        | hd :: tl -> { hd with fused_from = n.fused_from } :: tl
        | [] -> assert false);
      ignore id)
    nodes;
  build b

(* ---------- derived structure ---------- *)

let consumers t =
  let succ = Array.make (size t) [] in
  Array.iter
    (fun n ->
      List.iter (fun (_, p) -> succ.(p) <- n.id :: succ.(p)) n.deps)
    t.nodes;
  Array.map (fun l -> List.sort_uniq compare l) succ

(* Kahn levels over the dependency DAG: level k holds every node whose
   longest dependency chain has length k.  Nodes within a level are
   independent, so their kernels can compile concurrently; ids inside each
   level stay sorted for determinism. *)
let levels t =
  let n = size t in
  let level = Array.make n 0 in
  Array.iter
    (fun nd ->
      level.(nd.id) <-
        List.fold_left (fun acc (_, p) -> max acc (level.(p) + 1)) 0 nd.deps)
    t.nodes;
  let depth = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let buckets = Array.make depth [] in
  for id = n - 1 downto 0 do
    buckets.(level.(id)) <- id :: buckets.(level.(id))
  done;
  Array.to_list buckets

let total_op_instances t =
  Array.fold_left (fun acc n -> acc + n.count) 0 t.nodes

let total_flops t =
  Array.fold_left
    (fun acc n ->
      acc +. (float_of_int n.count *. float_of_int (Ops.Op.flops n.op)))
    0.0 t.nodes

let edge_count t =
  Array.fold_left (fun acc n -> acc + List.length n.deps) 0 t.nodes

(* ---------- conversion from the flat layer tables ---------- *)

(* Best-effort lift of a flat {!Model.t}: layers become nodes in table
   order, and each node is chained onto the nearest preceding node whose
   output shape can feed one of its inputs.  Real dataflow (residual
   edges, multi-input attention) needs the per-network graph builders; the
   lift guarantees every existing model keeps compiling through the graph
   path with the same ops and counts. *)
let of_model model =
  let b = builder ~name:(Model.name model) ~batch:(Model.batch model) in
  List.iter
    (fun (l : Model.layer) ->
      let deps =
        if b.next = 0 then []
        else begin
          let compute = Ops.Op.compute l.op in
          let rec probe pid =
            if pid < 0 then []
            else begin
              let producer = List.nth b.rev_nodes (b.next - 1 - pid) in
              let pshape = output_shape_of producer.op in
              match
                List.find_opt
                  (fun i ->
                    shape_feeds ~producer:pshape
                      ~declared:i.Tensor_lang.Compute.in_shape)
                  (Tensor_lang.Compute.inputs compute)
              with
              | Some input -> [ (input.Tensor_lang.Compute.in_name, pid) ]
              | None -> probe (pid - 1)
            end
          in
          probe (b.next - 1)
        end
      in
      ignore (add b ~count:l.count ~deps l.layer_name l.op))
    (Model.layers model);
  build b

(* ---------- printing ---------- *)

let pp ppf t =
  Fmt.pf ppf "%s (batch %d): %d nodes, %d edges, %d op instances, %.2f GFLOPs"
    t.name t.batch (size t) (edge_count t) (total_op_instances t)
    (total_flops t /. 1e9)

let pp_node ppf n =
  Fmt.pf ppf "n%d %s %s%s out [%a]%s%s" n.id n.node_name
    (Ops.Op.kind_to_string (Ops.Op.kind n.op))
    (if n.count = 1 then "" else Fmt.str " x%d" n.count)
    Fmt.(list ~sep:(any ";") int)
    (output_shape_of n.op)
    (if n.deps = [] then ""
     else
       Fmt.str " <- %s"
         (String.concat ", "
            (List.map (fun (i, p) -> Fmt.str "%s:n%d" i p) n.deps)))
    (if n.fused_from = [] then ""
     else Fmt.str " [fused: %s]" (String.concat ", " n.fused_from))

let pp_text ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@]" pp t
    Fmt.(list ~sep:cut pp_node)
    (nodes t)

let to_dot t =
  let buf = Buffer.create 1024 in
  let pr fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pr "digraph %S {\n  rankdir=TB;\n" t.name;
  Array.iter
    (fun n ->
      pr "  n%d [label=\"%s\\n%s%s%s\"%s];\n" n.id n.node_name
        (Ops.Op.kind_to_string (Ops.Op.kind n.op))
        (if n.count = 1 then "" else Fmt.str " x%d" n.count)
        (if n.fused_from = [] then ""
         else Fmt.str "\\n+ %s" (String.concat " + " n.fused_from))
        (if n.fused_from = [] then "" else " style=filled fillcolor=lightblue")
    )
    t.nodes;
  Array.iter
    (fun n ->
      List.iter (fun (i, p) -> pr "  n%d -> n%d [label=\"%s\"];\n" p n.id i)
        n.deps)
    t.nodes;
  pr "}\n";
  Buffer.contents buf
