(** Graph IR above [lib/ops]: nodes are operators, edges are tensor
    dependencies.  The end-to-end path works on this representation —
    {!Fusion} folds pointwise tails into their anchors, {!Memplan} computes
    live ranges and peak intermediate footprint, and {!Runner.run_graph}
    compiles the distinct kernels across the worker pool.

    Nodes are topologically ordered by construction: the builder only
    accepts dependencies on already-added nodes. *)

type node = {
  id : int;
  node_name : string;
  op : Ops.Op.t;
  count : int;  (** occurrences charged in end-to-end latency *)
  deps : (string * int) list;
      (** compute input name → producer node id; inputs without an edge are
          network inputs or weights *)
  fused_from : string list;
      (** layer names the fusion pass folded into this node's epilogue *)
}

type t

val name : t -> string
val batch : t -> int
val size : t -> int
val nodes : t -> node list

(** Raises [Invalid_argument] on an unknown id. *)
val node : t -> int -> node

(** {1 Builder} *)

type builder

val builder : name:string -> batch:int -> builder

(** [add b name op] appends a node and returns its id.  Validation rejects
    dependencies on unknown nodes, edges onto undeclared inputs, duplicate
    edges onto one input, and producer output shapes that cannot feed the
    declared input shape (equal rank, producer dims ≤ declared dims — the
    slack absorbs padding folded into conv input declarations). *)
val add :
  builder -> ?count:int -> ?deps:(string * int) list -> string -> Ops.Op.t ->
  int

val build : builder -> t

(** Rebuild from nodes already in topological order, re-running every
    builder check; [fused_from] is preserved.  Used by the fusion pass. *)
val of_nodes : name:string -> batch:int -> node list -> t

(** {1 Derived structure} *)

(** Per-node consumer ids (deduplicated, sorted). *)
val consumers : t -> int list array

(** Kahn levels: level k holds nodes whose longest dependency chain is k.
    Nodes within a level are independent; ids stay sorted. *)
val levels : t -> int list list

val total_op_instances : t -> int
val total_flops : t -> float
val edge_count : t -> int

(** Best-effort lift of a flat layer table: layers become nodes in table
    order, each chained onto the nearest preceding node whose output can
    feed one of its inputs.  Keeps every existing model compiling through
    the graph path; real dataflow comes from the per-network builders. *)
val of_model : Model.t -> t

val pp : t Fmt.t

(** Full dump: summary line plus one line per node. *)
val pp_text : t Fmt.t

(** Graphviz rendering; fused nodes are highlighted. *)
val to_dot : t -> string
