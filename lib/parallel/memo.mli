(** No-op.  No process-wide caches are left; this stays only until a
    benchmark change drops the call from the [perfbench/] set-ups. *)
val clear_all : unit -> unit
