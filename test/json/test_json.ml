(* The JSON layer: printing then parsing is the identity, the printer is
   compact, malformed documents are refused with a byte offset, and
   [\uXXXX] escapes decode to UTF-8. *)

let parsed =
  let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = ) in
  Alcotest.(result json string)

(* Strings over every ASCII byte, so quotes, backslashes and all control
   characters are exercised. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\127') (int_bound 12) in
  let num =
    oneof [ map float_of_int (int_range (-1_000_000) 1_000_000);
            float_range (-1e12) 1e12 ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof [ return Json.Null; map (fun b -> Json.Bool b) bool;
                   map (fun f -> Json.Number f) num; map (fun s -> Json.String s) str ]
         in
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.Array l) (list_size (int_bound 4) (self (depth - 1))));
               (1, map (fun l -> Json.Object l)
                     (list_size (int_bound 4) (pair str (self (depth - 1))))) ])

let round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_every_ascii_byte () =
  let all = String.init 128 Char.chr in
  let v = Json.Object [ (all, Json.Array [ Json.String all ]) ] in
  Alcotest.check parsed "all 128 bytes round-trip" (Ok v) (Json.parse (Json.to_string v))

let test_compact () =
  Alcotest.(check string) "no whitespace, integral numbers as integers"
    {|{"a":[1,-2.5,null,true],"b":{},"c":"\"\\\n\u0001"}|}
    (Json.to_string
       (Json.Object
          [ ("a", Json.Array [ Json.Number 1.; Json.Number (-2.5); Json.Null; Json.Bool true ]);
            ("b", Json.Object []);
            ("c", Json.String "\"\\\n\001") ]))

let test_unicode_escapes () =
  Alcotest.check parsed "\\u0141 is two UTF-8 bytes, not its low byte"
    (Ok (Json.String "\xc5\x81")) (Json.parse {|"\u0141"|});
  Alcotest.check parsed "a surrogate pair is one code point"
    (Ok (Json.String "\xf0\x9f\x98\x80")) (Json.parse {|"\ud83d\ude00"|});
  Alcotest.check parsed "whitespace around the document"
    (Ok (Json.Array [ Json.Number 0.5 ])) (Json.parse " [ 5e-1 ]\n")

let test_rejects () =
  List.iter
    (fun (doc, err) -> Alcotest.check parsed doc (Error err) (Json.parse doc))
    [ ("{} x", "byte 3: trailing characters after the document");
      ("\"a\nb\"", "byte 2: raw control character in string");
      ({|"a\qb"|}, "byte 3: bad escape");
      ({|"abc|}, "byte 4: unterminated string");
      ({|"\ud83d"|}, "byte 7: unpaired surrogate");
      ({|"\ud83d\u0041"|}, "byte 13: unpaired surrogate");
      ("[1,]", "byte 3: unexpected character");
      ("01", "byte 1: trailing characters after the document");
      ("", "byte 0: unexpected end of input") ]

let () =
  Alcotest.run "json"
    [ ("printer",
       [ Alcotest.test_case "compact" `Quick test_compact;
         Alcotest.test_case "every ASCII byte" `Quick test_every_ascii_byte;
         QCheck_alcotest.to_alcotest round_trip ]);
      ("parser",
       [ Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
         Alcotest.test_case "malformed rejected" `Quick test_rejects ]) ]
