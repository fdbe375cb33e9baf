(** Unified counter/gauge registry.

    Every layer's operational counters — incremental-build counts,
    dominance-prune drops, kernel-cache hits — report through this one
    registry so the bench harness, the trace exporters and the report layer
    read them from a single place instead of sampling N ad-hoc stat
    records.  Each counter is an atomic int; increments are tear-free under
    [Parallel.Pool] domains.

    Names are dotted lowercase paths ([layer.metric], e.g.
    [delta.full_builds]); {!snapshot} returns them sorted so output is
    deterministic. *)

type t

(** [make name] is the process-wide counter [name], created at first
    use (subsequent calls return the same counter). *)
val make : string -> t

val incr : t -> unit
val add : t -> int -> unit

(** [set] makes a counter a gauge; also used by reset paths. *)
val set : t -> int -> unit

val get : t -> int
val name : t -> string

(** Every counter, sorted by name. *)
val snapshot : unit -> (string * int) list

val find : string -> int option

(** Zero every counter. *)
val reset_all : unit -> unit
