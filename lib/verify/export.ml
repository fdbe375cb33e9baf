(* Machine-readable renderings of verifier output: a compact JSON format
   and SARIF 2.1.0, both built as [Json.t] values and printed by [Json].

   SARIF notes:
   - diagnostic codes are the SARIF rule ids; the driver's [rules] array
     lists each code that appears, once, with its pass as the description;
   - severities map Error -> "error", Warning -> "warning", Info -> "note";
   - targets have no file/line identity (they are schedules, not source),
     so results carry [logicalLocations] with the analysis target and the
     diagnostic's own locus as the fully qualified name. *)

open Json

type item = {
  target : string;
  diags : Diagnostic.t list;
  region : string option;  (* rendered certificate region, when certified *)
}

let item ?region ~target diags = { target; diags; region }

let int n = Number (float_of_int n)
let text s = Object [ ("text", String s) ]
let document v = to_string v ^ "\n"

(* ---------- compact JSON ---------- *)

let tallies diags =
  [ ("errors", int (Diagnostic.count Diagnostic.Error diags));
    ("warnings", int (Diagnostic.count Diagnostic.Warning diags));
    ("infos", int (Diagnostic.count Diagnostic.Info diags)) ]

let diag_json (d : Diagnostic.t) =
  Object
    [ ("code", String d.Diagnostic.code);
      ("severity", String (Diagnostic.severity_to_string d.Diagnostic.severity));
      ("pass", String (Diagnostic.pass_to_string d.Diagnostic.pass));
      ("loc", String d.Diagnostic.loc);
      ("message", String d.Diagnostic.message) ]

let item_json it =
  Object
    ([ ("target", String it.target);
       ("region", Option.fold ~none:Null ~some:(fun r -> String r) it.region) ]
    @ tallies it.diags
    @ [ ("diagnostics", Array (List.map diag_json (Diagnostic.by_severity it.diags))) ])

let json items =
  document
    (Object
       [ ("tool", String "gensor-verify");
         ("items", Array (List.map item_json items));
         ("summary",
          Object
            (("targets", int (List.length items))
            :: tallies (List.concat_map (fun it -> it.diags) items))) ])

(* ---------- SARIF 2.1.0 ---------- *)

let sarif_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

(* One rule per distinct code, in first-appearance order. *)
let rules items =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun it ->
      List.filter_map
        (fun (d : Diagnostic.t) ->
          if Hashtbl.mem seen d.Diagnostic.code then None
          else begin
            Hashtbl.add seen d.Diagnostic.code ();
            Some
              (Object
                 [ ("id", String d.Diagnostic.code);
                   ("shortDescription",
                    text
                      (Fmt.str "gensor verifier %s-pass diagnostic"
                         (Diagnostic.pass_to_string d.Diagnostic.pass))) ])
          end)
        it.diags)
    items

let sarif_result ~target (d : Diagnostic.t) =
  let locus =
    Object
      [ ("fullyQualifiedName", String (target ^ ": " ^ d.Diagnostic.loc));
        ("kind", String "member") ]
  in
  Object
    [ ("ruleId", String d.Diagnostic.code);
      ("level", String (sarif_level d.Diagnostic.severity));
      ("message", text d.Diagnostic.message);
      ("locations", Array [ Object [ ("logicalLocations", Array [ locus ]) ] ]) ]

let sarif items =
  let results =
    List.concat_map
      (fun it ->
        List.map (sarif_result ~target:it.target)
          (Diagnostic.by_severity it.diags))
      items
  in
  let driver =
    Object
      [ ("name", String "gensor-verify");
        ("version", String "1.0");
        ("rules", Array (rules items)) ]
  in
  document
    (Object
       [ ("$schema", String "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", String "2.1.0");
         ("runs",
          Array [ Object [ ("tool", Object [ ("driver", driver) ]); ("results", Array results) ] ]) ])
