(* Diagnostics of the schedule legality verifier.

   Every finding carries the pass that produced it, a stable machine-readable
   code ([GSR-B01], [GSR-R02], ...) for CI gates and editor integrations, a
   human-readable location (axis, kernel line, tensor) precise enough to act
   on, and a severity: [Error] marks a schedule or kernel that must not ship
   (out-of-bounds access, data race, kernel contradicting the
   schedule), [Warning] marks legality debts a guard would repay
   (non-dividing tiles), [Info] is advisory.

   Codes are part of the tool's contract: once shipped, a code keeps its
   meaning forever (retire, never reuse).  The default text rendering ([pp],
   [pp_report]) deliberately omits the code so byte-for-byte output of the
   pre-code verifier is preserved; structured exporters (JSON, SARIF) carry
   it as the rule id. *)

type severity = Error | Warning | Info
type pass = Bounds | Race | Lint | Cert

type t = {
  code : string;
  severity : severity;
  pass : pass;
  loc : string;
  message : string;
}

let v ~code severity pass ~loc fmt =
  Fmt.kstr (fun message -> { code; severity; pass; loc; message }) fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pass_to_string = function
  | Bounds -> "bounds"
  | Race -> "race"
  | Lint -> "lint"
  | Cert -> "cert"

let pass_of_string = function
  | "bounds" -> Some Bounds
  | "race" -> Some Race
  | "lint" -> Some Lint
  | "cert" -> Some Cert
  | _ -> None

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

(* Errors first, then warnings, then infos; stable within a severity. *)
let by_severity ds =
  let rank = function Error -> 0 | Warning -> 1 | Info -> 2 in
  List.stable_sort (fun a b -> compare (rank a.severity) (rank b.severity)) ds

let pp ppf d =
  Fmt.pf ppf "[%s/%s] %s: %s"
    (pass_to_string d.pass)
    (severity_to_string d.severity)
    d.loc d.message

let pp_coded ppf d =
  Fmt.pf ppf "%s [%s/%s] %s: %s" d.code
    (pass_to_string d.pass)
    (severity_to_string d.severity)
    d.loc d.message

let pp_report ppf ds =
  if ds = [] then Fmt.pf ppf "clean (no diagnostics)"
  else begin
    Fmt.pf ppf "@[<v>%d error(s), %d warning(s), %d info(s)" (count Error ds)
      (count Warning ds) (count Info ds);
    List.iter (fun d -> Fmt.pf ppf "@,%a" pp d) (by_severity ds);
    Fmt.pf ppf "@]"
  end
