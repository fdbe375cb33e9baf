(** Persistent on-disk artifact store.

    One framed {!Record} file per entry ([<md5-of-key>.gat]) and nothing
    else.  Writes are atomic (same-directory temp file +
    rename); opening scans the directory and skips undecodable entries,
    reporting them as {!issues} instead of failing.  All operations are
    mutex-guarded and safe to share across [Parallel.Pool] domains. *)

type t

(** A file in the store directory that failed to decode. *)
type issue = { path : string; error : Codec.error }

(** Store identity of a tuned schedule. *)
val key :
  device_fingerprint:string ->
  method_name:string ->
  compute_fingerprint:string ->
  string

val key_of_record : Record.t -> string

(** [open_ dir] creates [dir] if needed and loads every readable entry. *)
val open_ : string -> t

(** Name of the environment variable naming the default store directory. *)
val env_var : string

(** [open_env ()] opens the store named by [GENSOR_CACHE_DIR], if set. *)
val open_env : unit -> t option

val dir : t -> string
val size : t -> int

(** Files skipped while opening, with their positioned decode errors. *)
val issues : t -> issue list

val find :
  t ->
  device_fingerprint:string ->
  method_name:string ->
  compute_fingerprint:string ->
  Record.t option

(** All entries, sorted by key. *)
val entries : t -> (string * Record.t) list

(** [put t r] persists [r] (atomic write-then-rename), keeps the
    better-scoring record on key collision, and returns the entry key. *)
val put : t -> Record.t -> string

(** Bytes on disk across all live entries. *)
val total_bytes : t -> int

(** Delete every entry; returns how many were removed. *)
val purge : t -> int

(** Copy one entry's framed file text to [dest]. *)
val export : t -> key:string -> dest:string -> (unit, string) result

val pp_issue : issue Fmt.t
