(** The repository's one JSON layer.  Verifier JSON/SARIF and Chrome trace
    events are built as {!t} and printed here; [gensor trace check] and the
    tests read documents with {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string  (** raw bytes; UTF-8 for non-ASCII text *)
  | Array of t list
  | Object of (string * t) list  (** members in document order *)

(** Compact rendering, no whitespace between tokens.  Strings escape quote,
    backslash and every control character.  Numbers print in the shorter
    of [%.15g]/[%.17g] that reads back exactly, so integers print as such.
    @raise Invalid_argument on a NaN or infinite number. *)
val to_string : t -> string

(** Parse one document (RFC 8259; surrounding whitespace allowed).
    [\uXXXX] escapes, surrogate pairs included, decode to UTF-8.  An error
    names the byte offset and what failed there, e.g. ["byte 12: bad
    escape"]. *)
val parse : string -> (t, string) result

(** [member key v]: the first member [key] of object [v], else [None]. *)
val member : string -> t -> t option
