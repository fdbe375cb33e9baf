(** Unified GENSOR_* environment-variable parsing.

    Before this module each layer hand-rolled its own [Sys.getenv_opt]
    matching and disagreed on the accepted spellings.  Every knob now goes
    through one parser with one documented contract:

    {b Booleans} (case-insensitive, surrounding whitespace ignored):
    - true:  ["1"], ["true"], ["yes"], ["on"]
    - false: ["0"], ["false"], ["no"], ["off"], [""]

    {b Integers} use [int_of_string] syntax (so ["0x10"] and ["1_000"]
    parse).

    Anything unrecognised falls back to the knob's default after a
    one-time warning on stderr — a typo'd knob must degrade loudly, never
    misbehave or raise deep inside a domain spawn. *)

(** [bool ~default key] parses [key] as a boolean knob. *)
val bool : default:bool -> string -> bool

(** [int ?min ~default key] parses [key] as an integer knob.  A value below
    [min] is clamped to it (warned once); an unparseable value falls back
    to [default] (likewise warned once). *)
val int : ?min:int -> default:int -> string -> int

(** [string key] is the trimmed value of [key] when set and non-empty. *)
val string : string -> string option

(** Keys that have triggered a parse warning so far, oldest first.  Each
    key warns at most once per process; exposed for the test suite. *)
val warned : unit -> string list

val reset_warnings : unit -> unit
