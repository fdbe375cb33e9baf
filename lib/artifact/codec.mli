(** Artifact wire format: versioned checksummed framing, the line reader and
    primitive field codecs shared by every component codec.

    The format is line-oriented text — one field per line, OCaml-quoted
    strings — so artifacts diff cleanly.  Decoders are total: every parse
    path returns [result] with a positioned {!error}; no [Marshal], no
    exceptions escaping on corrupt input. *)

type error = { line : int; msg : string }

val error : int -> ('a, Format.formatter, unit, ('b, error) result) format4 -> 'a
val pp_error : error Fmt.t
val error_to_string : error -> string

(** {1 Writing}

    Encoders append whole lines to one [Buffer.t]: {!key} starts a line,
    {!atom}, {!int}, {!float}, {!str} and {!sexp} each append a space and
    one value, {!eol} ends the line. *)

val key : Buffer.t -> string -> unit
val atom : Buffer.t -> string -> unit
val int : Buffer.t -> int -> unit

(** Exact round-trip formatting ([%.17g]). *)
val float : Buffer.t -> float -> unit

(** OCaml-quoted ([%S]) literal — single-line, unambiguous. *)
val str : Buffer.t -> string -> unit

val eol : Buffer.t -> unit

(** [field b k put v] is the line [k v], [v] written by [put]. *)
val field : Buffer.t -> string -> (Buffer.t -> 'a -> unit) -> 'a -> unit

(** [%.17g], as {!float} writes it. *)
val float_str : float -> string

(** [to_string encode x] runs a buffer encoder into a fresh string. *)
val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string

(** MD5 hex of an encoding's lines joined by newlines (the text without
    its final newline) — the content identity the fingerprints use. *)
val digest_lines : string -> string

(** {1 Line cursor} *)

type cursor

(** [cursor text] positions a reader at line 1 of [text].  The text is
    read by line offsets in place; lines are never copied. *)
val cursor : string -> cursor

(** Line number of the next unread line. *)
val lineno : cursor -> int

(** True when only blank lines remain. *)
val at_end : cursor -> bool

(** Leading word of the next non-blank line without consuming it — lets
    decoders branch on optional trailing fields; [None] at end. *)
val peek_key : cursor -> string option

(** {1 Fields}

    One field per line: a key, then values separated by blanks.  Values
    are bare words or OCaml-quoted literals; a literal goes through
    [Scanf.unescaped] only when it contains a backslash. *)

(** The values of one field line, read left to right in place. *)
type line

(** [line c key] consumes the next non-blank line and requires its leading
    word to be [key]. *)
val line : cursor -> string -> (line, error) result

val line_number : line -> int
val get_int : line -> (int, error) result
val get_float : line -> (float, error) result
val get_str : line -> (string, error) result

(** A bare word. *)
val get_atom : line -> (string, error) result

(** Every remaining value, as integers. *)
val get_ints : line -> (int list, error) result

(** Error unless only blanks remain. *)
val close : line -> (unit, error) result

(** [line], one value, [close]. *)

val field_int : cursor -> string -> (int, error) result
val field_float : cursor -> string -> (float, error) result
val field_str : cursor -> string -> (string, error) result

(** [line], then {!get_ints}. *)
val field_ints : cursor -> string -> (int list, error) result

(** {1 Re-reading known sections} *)

(** The cursor's position, for {!since}. *)
val mark : cursor -> int

(** The text consumed between a {!mark} and now. *)
val since : cursor -> int -> string

(** [skip c s] consumes [s] and returns [true] when the unread text starts
    with [s]; [s] must end with a newline.  Otherwise consumes nothing. *)
val skip : cursor -> string -> bool

(** {1 S-expressions} (compute bodies, index expressions) *)

type sexp = A of string | S of string | L of sexp list

(** Append a space and the expression, like the other value writers. *)
val sexp : Buffer.t -> sexp -> unit

(** One expression filling the rest of the line. *)
val get_sexp : line -> (sexp, error) result

(** {1 Framing} *)

val magic : string
val version : int

(** MD5 hex of a payload. *)
val checksum : string -> string

(** [frame payload] prepends the magic/version and checksum lines. *)
val frame : string -> string

(** [unframe text] validates magic, version and checksum and returns a
    cursor at the first payload line, read in place.  Truncated,
    stale-versioned or corrupt input yields a positioned [Error] — never an
    exception, never a wrong payload. *)
val unframe : string -> (cursor, error) result
