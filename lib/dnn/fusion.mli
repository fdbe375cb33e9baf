(** Graph-level epilogue fusion: folds pointwise tails (relu, bias-add,
    residual-add, affine) into their matmul/conv anchors by composing the
    anchor's compute epilogue, eliminating one kernel launch and one
    intermediate-tensor round-trip per folded node.

    Refusals carry stable codes: GSR-F01..F06 from
    {!Tensor_lang.Compute.fuse_epilogue} (reduction consumer, shape
    mismatch, non-pointwise consumption, non-identity seed, dtype mismatch,
    double epilogue), GSR-F07 anchor with multiple consumers, GSR-F08
    occurrence-count mismatch, GSR-F09 no such edge.  Counters:
    [graph.fuse.folded], [graph.fuse.groups], [graph.fuse.refused]. *)

type group = { anchor_id : int; anchor_name : string; folded : string list }
type refusal = { at : string; into : string; code : string; reason : string }

type result = {
  graph : Graph.t;
  groups : group list;
  refused : refusal list;  (** candidates that stayed separate kernels *)
}

(** One pass in topological order; chains like conv→bias→relu fold as
    each tail is visited.  Illegal candidates are recorded in [refused]
    and left unfused. *)
val fuse : Graph.t -> result

(** Fold one specific edge, or return the stable refusal code — the entry
    point for negative fixtures (e.g. a pooling consumer → GSR-F01). *)
val try_fuse :
  Graph.t ->
  anchor:int ->
  consumer:int ->
  (Graph.t, string * string) Stdlib.result

val pp_group : group Fmt.t
val pp_refusal : refusal Fmt.t
