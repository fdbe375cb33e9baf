(* One value type, one compact printer, one parser; see the mli. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* ---------- printing ---------- *)

let number f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite number";
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b v =
  let seq op cl f xs =
    Buffer.add_char b op;
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; f x) xs;
    Buffer.add_char b cl
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Number f -> Buffer.add_string b (number f)
  | String s -> add_string b s
  | Array vs -> seq '[' ']' (add b) vs
  | Object ms -> seq '{' '}' (fun (k, v) -> add_string b k; Buffer.add_char b ':'; add b v) ms

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of int * string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  (* Fail at the byte just read. *)
  let back msg = decr pos; fail msg in
  let expect c = if next () <> c then back (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if at ' ' || at '\t' || at '\n' || at '\r' then (incr pos; ws ()) in
  let rec hex k v =
    if k = 0 then v
    else
      match next () with
      | '0' .. '9' as c -> hex (k - 1) ((v * 16) + Char.code c - 48)
      | 'a' .. 'f' as c -> hex (k - 1) ((v * 16) + Char.code c - 87)
      | 'A' .. 'F' as c -> hex (k - 1) ((v * 16) + Char.code c - 55)
      | _ -> back "bad \\u escape"
  in
  (* A high surrogate must be followed by an escaped low one; the pair is
     one code point. *)
  let code_point () =
    let u = hex 4 0 in
    if u >= 0xD800 && u < 0xDC00 && at '\\' && !pos + 1 < n && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex 4 0 in
      if lo >= 0xDC00 && lo < 0xE000 then 0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
      else fail "unpaired surrogate"
    end
    else if Uchar.is_valid u then u
    else fail "unpaired surrogate"
  in
  (* Called just past the opening quote. *)
  let string () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | c -> (
          match String.index_opt "\"\\/bfnrt" c with
          | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
          | None -> back "bad escape"));
        go ()
      | c when c < ' ' -> back "raw control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then fail "expected a digit"
    in
    let skip c = at c && (incr pos; true) in
    ignore (skip '-');
    if not (skip '0') then digits ();
    if skip '.' then digits ();
    if skip 'e' || skip 'E' then (ignore (skip '+' || skip '-'); digits ());
    Number (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (pos := !pos + len; v)
    else fail "unexpected character"
  in
  (* [items close item acc] reads [item (',' item)* close]. *)
  let rec items close item acc =
    let acc = item () :: acc in
    ws ();
    match next () with
    | ',' -> items close item acc
    | c when c = close -> List.rev acc
    | _ -> back (Printf.sprintf "expected ',' or '%c'" close)
  in
  let rec member () =
    ws ();
    expect '"';
    let k = string () in
    ws ();
    expect ':';
    (k, value ())
  and value () =
    ws ();
    match next () with
    | '{' -> ws (); if at '}' then (incr pos; Object []) else Object (items '}' member [])
    | '[' -> ws (); if at ']' then (incr pos; Array []) else Array (items ']' value [])
    | '"' -> String (string ())
    | 't' -> decr pos; literal "true" (Bool true)
    | 'f' -> decr pos; literal "false" (Bool false)
    | 'n' -> decr pos; literal "null" Null
    | '-' | '0' .. '9' -> decr pos; number ()
    | _ -> back "unexpected character"
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters after the document";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)

let member key = function
  | Object ms -> List.assoc_opt key ms
  | _ -> None
