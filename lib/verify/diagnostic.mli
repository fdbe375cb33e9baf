(** Diagnostics of the schedule legality verifier.

    [Error] marks a schedule or kernel that must not ship (out-of-bounds
    access, data race, kernel contradicting the schedule); [Warning]
    marks legality debts a boundary guard would repay (non-dividing tiles);
    [Info] is advisory.

    Every diagnostic carries a stable code ([GSR-B01], [GSR-R02], ...)
    usable as a SARIF rule id; codes keep their meaning forever (retire,
    never reuse).  The plain text rendering omits them so [pp]/[pp_report]
    output is byte-identical to the pre-code verifier. *)

type severity = Error | Warning | Info
type pass = Bounds | Race | Lint | Cert

type t = {
  code : string;  (** stable diagnostic code, e.g. [GSR-B01] *)
  severity : severity;
  pass : pass;
  loc : string;  (** axis, kernel line or tensor the finding points at *)
  message : string;
}

(** [v ~code severity pass ~loc fmt ...] builds a diagnostic with a
    formatted message. *)
val v :
  code:string ->
  severity -> pass -> loc:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_to_string : severity -> string
val pass_to_string : pass -> string
val pass_of_string : string -> pass option
val severity_of_string : string -> severity option
val is_error : t -> bool
val errors : t list -> t list
val count : severity -> t list -> int

(** Errors first, then warnings, then infos; stable within a severity. *)
val by_severity : t list -> t list

(** Text rendering without the code (byte-stable report format). *)
val pp : t Fmt.t

(** Like {!pp} with the code prefixed — the [analyze] text format. *)
val pp_coded : t Fmt.t

(** Summary line plus every diagnostic, severity-sorted. *)
val pp_report : t list Fmt.t
