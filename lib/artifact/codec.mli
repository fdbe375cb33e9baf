(** Artifact wire format: versioned checksummed framing, tokenizer and
    primitive field codecs shared by every component codec.

    The format is line-oriented text — one field per line, OCaml-quoted
    strings — so artifacts diff cleanly.  Decoders are total: every parse
    path returns [result] with a positioned {!error}; no [Marshal], no
    exceptions escaping on corrupt input. *)

type error = { line : int; msg : string }

val error : int -> ('a, Format.formatter, unit, ('b, error) result) format4 -> 'a
val pp_error : error Fmt.t
val error_to_string : error -> string

(** {1 Scalar atoms} *)

(** OCaml-quoted ([%S]) string literal — single-line, unambiguous. *)
val quote : string -> string

(** Exact round-trip float formatting ([%.17g]). *)
val float_str : float -> string

(** {1 Tokens} *)

type token = Atom of string | Str of string | Lparen | Rparen

val tokenize : line:int -> string -> (token list, error) result
val take_int : line:int -> token list -> (int * token list, error) result
val take_float : line:int -> token list -> (float * token list, error) result
val take_str : line:int -> token list -> (string * token list, error) result
val take_atom : line:int -> token list -> (string * token list, error) result
val take_ints : line:int -> token list -> (int list, error) result

(** Error unless the token list is exhausted. *)
val finish : line:int -> token list -> (unit, error) result

(** {1 Line cursor} *)

type cursor

(** [cursor ~base lines] positions a reader over payload [lines]; [base] is
    the 1-based file line number of the first payload line (for error
    positions). *)
val cursor : ?base:int -> string list -> cursor

val lineno : cursor -> int

(** True when only blank lines remain. *)
val at_end : cursor -> bool

(** Next non-blank line with its file line number. *)
val next_line : cursor -> (int * string, error) result

(** Leading word of the next non-blank line without consuming it — lets
    decoders branch on optional trailing fields; [None] at end. *)
val peek_key : cursor -> string option

(** [field c key] consumes the next line, requires its leading word to be
    [key], and returns the remaining tokens. *)
val field : cursor -> string -> (int * token list, error) result

val field_int : cursor -> string -> (int, error) result
val field_float : cursor -> string -> (float, error) result
val field_str : cursor -> string -> (string, error) result
val field_atom : cursor -> string -> (string, error) result
val field_ints : cursor -> string -> (int list, error) result

(** {1 S-expressions} (compute bodies, index expressions) *)

type sexp = A of string | S of string | L of sexp list

val sexp_to_string : sexp -> string
val sexp_of_tokens : line:int -> token list -> (sexp, error) result

(** {1 Framing} *)

val magic : string
val version : int

(** MD5 hex of a payload. *)
val checksum : string -> string

(** [frame payload] prepends the magic/version and checksum lines. *)
val frame : string -> string

(** File line number of the first payload line (after the two header
    lines). *)
val payload_base : int

(** [unframe text] validates magic, version and checksum and returns the
    payload lines.  Truncated, stale-versioned or corrupt input yields a
    positioned [Error] — never an exception, never a wrong payload. *)
val unframe : string -> (string list, error) result
