(** Scalar expressions forming the body of a compute definition. *)

type t =
  | Imm of float
  | Read of Access.t
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Max of t * t
  | Min of t * t

val imm : float -> t

(** [read tensor indices] is a tensor element read. *)
val read : string -> Index.t list -> t

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val max_ : t -> t -> t
val min_ : t -> t -> t

(** [eval ~read ~env t] evaluates [t]; [read tensor coords] supplies tensor
    element values, [env] supplies loop-variable values. *)
val eval : read:(string -> int list -> float) -> env:(string -> int) -> t -> float

(** All tensor accesses in the expression, left-to-right. *)
val accesses : t -> Access.t list

(** FLOPs per body evaluation: one per arithmetic node. *)
val flops : t -> int

(** [map_reads f t] rebuilds [t] with every [Read access] leaf replaced by
    [f access] — the substitution primitive behind epilogue fusion. *)
val map_reads : (Access.t -> t) -> t -> t

(** [rename_vars ~bindings t] renames loop variables inside every access;
    unlisted variables are untouched. *)
val rename_vars : bindings:(string * string) list -> t -> t

val pp : t Fmt.t
