(* Text codec for {!Verify.Diagnostic.t} lists — the verify status an
   artifact carries.  Locations and messages are arbitrary human text, so
   both travel as quoted strings; the stable diagnostic code travels as an
   atom (codes are machine identifiers, never free text). *)

open Verify

let ( let* ) = Result.bind

let severity_atom = Diagnostic.severity_to_string
let pass_atom = Diagnostic.pass_to_string

let severity_of_atom ~line atom =
  match Diagnostic.severity_of_string atom with
  | Some s -> Ok s
  | None -> Codec.error line "unknown severity %S" atom

let pass_of_atom ~line atom =
  match Diagnostic.pass_of_string atom with
  | Some p -> Ok p
  | None -> Codec.error line "unknown pass %S" atom

let encode b (ds : Diagnostic.t list) =
  Codec.field b "diags" Codec.int (List.length ds);
  List.iter
    (fun (d : Diagnostic.t) ->
      Codec.key b "diag";
      Codec.atom b d.code;
      Codec.atom b (severity_atom d.severity);
      Codec.atom b (pass_atom d.pass);
      Codec.str b d.loc;
      Codec.str b d.message;
      Codec.eol b)
    ds

let rec times n f acc =
  if n <= 0 then Ok (List.rev acc)
  else
    let* x = f () in
    times (n - 1) f (x :: acc)

let decode cur =
  let start = Codec.lineno cur in
  let* n = Codec.field_int cur "diags" in
  let* () =
    if n >= 0 && n <= 100_000 then Ok ()
    else Codec.error start "implausible diagnostic count %d" n
  in
  times n
    (fun () ->
      let* l = Codec.line cur "diag" in
      let ln = Codec.line_number l in
      let* code = Codec.get_atom l in
      let* sev = Codec.get_atom l in
      let* severity = severity_of_atom ~line:ln sev in
      let* pa = Codec.get_atom l in
      let* pass = pass_of_atom ~line:ln pa in
      let* loc = Codec.get_str l in
      let* message = Codec.get_str l in
      let* () = Codec.close l in
      Ok { Diagnostic.code; severity; pass; loc; message })
    []
