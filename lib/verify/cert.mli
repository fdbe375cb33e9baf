(** Shape-parametric legality certificates.

    [certify] runs the verifier's analyses in the symbolic
    {!Tensor_lang.Sym_interval} domain and emits a certificate: a region of
    shapes (a box over named shape symbols, linear constraints, and
    divisibility guard obligations) on which the witness schedule is
    provably clean under concrete {!Verify.run} — in-bounds, race-free and
    within capacity/launch limits.  Symbols are axis names; axes without a
    symbol are pinned to their witness extent.

    Soundness contract (the QCheck property in [test/verify]): for every
    valuation the certificate {!admits}, retargeting the witness schedule
    to that shape and running the concrete verifier yields no
    [Error]-severity diagnostic.  {!guards_hold} is the stricter
    boundary-guard check: shapes that fail it still verify error-free but
    carry "guard required" warnings (the emitted kernel has no boundary
    predication).

    Certificate diagnostics use codes [GSR-C01] (bad spec), [GSR-C02]
    (witness fails concrete verification), [GSR-C03] (empty region),
    [GSR-C04] (region-wide guard obligation, warning), [GSR-C05] (corner
    validation failure / capacity not shape-invariant — a warning: the
    schedule is refused a certificate, which already keeps dispatch away
    from unproven shapes, but nothing shipped is illegal). *)

module Affine = Tensor_lang.Sym_interval.Affine

(** [lhs <= rhs] over the shape symbols. *)
type constr = { lhs : Affine.t; rhs : Affine.t }

(** [divisor | g_sym]: a boundary-guard obligation. *)
type guard = { divisor : int; g_sym : string }

type t = {
  device : string;  (** {!Hardware.Gpu_spec.name} certification ran for *)
  syms : (string * Tensor_lang.Interval.t) list;
      (** certified box per symbolic axis, sorted by name; lo is already
          tightened to the clamp-free floor (top-level effective tile) *)
  constraints : constr list;  (** linear constraints beyond the box *)
  guards : guard list;  (** divisibility guard obligations *)
  witness : (string * int) list;
      (** every axis (in declaration order) at the certified witness *)
  witness_sig : string;  (** {!Sched.Etir.signature} of the witness *)
}

type outcome = {
  cert : t option;  (** [None] iff [diags] contains an error *)
  diags : Diagnostic.t list;
}

(** [certify ?syms ~hw etir] certifies [etir]'s schedule over the region
    declared by [syms] (axis name → extent range; default: every axis over
    [1, witness extent]).  The witness must verify concretely; both region
    corners are re-validated with the full concrete pipeline. *)
val certify :
  ?syms:(string * Tensor_lang.Interval.t) list ->
  hw:Hardware.Gpu_spec.t ->
  Sched.Etir.t ->
  outcome

(** [admits cert valuation] checks a full axis valuation (name → extent)
    against the certified region: symbolic axes within the box and
    constraints, all other axes equal to the witness. *)
val admits : t -> (string * int) list -> (unit, string) result

(** {!admits} on a compute definition's axes; also rejects a different
    axis structure. *)
val admits_compute : t -> Tensor_lang.Compute.t -> (unit, string) result

(** Do the divisibility guards hold at the valuation? *)
val guards_hold : t -> (string * int) list -> (unit, string) result

val pp_region : t Fmt.t
val pp : t Fmt.t
