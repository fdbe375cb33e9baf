(* The artifact wire format: a versioned, checksummed, line-oriented text
   encoding shared by every component codec.

   Design constraints (ISSUE 3):
   - human-diffable: one field per line, `key value...` with OCaml-quoted
     strings, so `git diff` and text tools work on stored kernels;
   - no [Marshal]: every byte is produced and parsed explicitly, so a file
     written by one build loads in any other (or fails loudly);
   - total decoding: decoders return [result] with a positioned error —
     corrupt input must never raise or silently mis-load.

   Framing: line 1 is `gensor-artifact <version>`, line 2 is
   `md5 <hex of payload>`, everything after is the payload.  The checksum
   covers the payload byte-for-byte, so truncation and bit-rot are caught
   before any field is parsed. *)

type error = { line : int; msg : string }

let error line fmt = Fmt.kstr (fun msg -> Error { line; msg }) fmt
let pp_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.msg
let error_to_string e = Fmt.str "%a" pp_error e

let ( let* ) = Result.bind

(* ---------- scalar atoms ---------- *)

(* OCaml-escaped, quoted: [%S] never emits a raw newline, space, paren or
   quote character, so quoted strings tokenize unambiguously on one line. *)
let quote s = Printf.sprintf "%S" s

(* "%.17g" round-trips every finite float64 exactly through
   [float_of_string]; nan and inf print as parseable atoms too. *)
let float_str f = Printf.sprintf "%.17g" f

(* ---------- tokens ---------- *)

type token = Atom of string | Str of string | Lparen | Rparen

let is_atom_char c =
  not (c = ' ' || c = '\t' || c = '(' || c = ')' || c = '"')

let tokenize ~line s =
  let n = String.length s in
  let closing_quote start =
    let rec go j =
      if j >= n then None
      else if s.[j] = '\\' then if j + 1 >= n then None else go (j + 2)
      else if s.[j] = '"' then Some j
      else go (j + 1)
    in
    go start
  in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' -> go (i + 1) acc
      | '(' -> go (i + 1) (Lparen :: acc)
      | ')' -> go (i + 1) (Rparen :: acc)
      | '"' -> (
        match closing_quote (i + 1) with
        | None -> error line "unterminated string literal"
        | Some j -> (
          let raw = String.sub s (i + 1) (j - i - 1) in
          match Scanf.unescaped raw with
          | exception _ -> error line "bad escape sequence in string %S" raw
          | u -> go (j + 1) (Str u :: acc)))
      | _ ->
        let j = ref i in
        while !j < n && is_atom_char s.[!j] do incr j done;
        go !j (Atom (String.sub s i (!j - i)) :: acc)
  in
  go 0 []

let take_int ~line = function
  | Atom a :: rest -> (
    match int_of_string_opt a with
    | Some v -> Ok (v, rest)
    | None -> error line "expected integer, got %S" a)
  | Str s :: _ -> error line "expected integer, got string %S" s
  | (Lparen | Rparen) :: _ -> error line "expected integer, got parenthesis"
  | [] -> error line "expected integer, got end of line"

let take_float ~line = function
  | Atom a :: rest -> (
    match float_of_string_opt a with
    | Some v -> Ok (v, rest)
    | None -> error line "expected float, got %S" a)
  | Str s :: _ -> error line "expected float, got string %S" s
  | (Lparen | Rparen) :: _ -> error line "expected float, got parenthesis"
  | [] -> error line "expected float, got end of line"

let take_str ~line = function
  | Str s :: rest -> Ok (s, rest)
  | Atom a :: _ -> error line "expected quoted string, got %S" a
  | (Lparen | Rparen) :: _ -> error line "expected quoted string, got parenthesis"
  | [] -> error line "expected quoted string, got end of line"

let take_atom ~line = function
  | Atom a :: rest -> Ok (a, rest)
  | Str s :: _ -> error line "expected bare word, got string %S" s
  | (Lparen | Rparen) :: _ -> error line "expected bare word, got parenthesis"
  | [] -> error line "expected bare word, got end of line"

let finish ~line = function
  | [] -> Ok ()
  | _ -> error line "trailing tokens on line"

let take_ints ~line toks =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | toks ->
      let* v, rest = take_int ~line toks in
      go (v :: acc) rest
  in
  go [] toks

(* ---------- line cursor ---------- *)

type cursor = { lines : string array; base : int; mutable pos : int }

let cursor ?(base = 1) lines =
  { lines = Array.of_list lines; base; pos = 0 }

let lineno c = c.base + c.pos

let at_end c =
  let rec go i =
    i >= Array.length c.lines || (String.trim c.lines.(i) = "" && go (i + 1))
  in
  go c.pos

let next_line c =
  let rec go () =
    if c.pos >= Array.length c.lines then
      error (c.base + Array.length c.lines) "unexpected end of artifact payload"
    else begin
      let ln = lineno c in
      let l = c.lines.(c.pos) in
      c.pos <- c.pos + 1;
      if String.trim l = "" then go () else Ok (ln, l)
    end
  in
  go ()

(* First word of the next non-blank line, without consuming anything —
   lets decoders branch on optional trailing fields. *)
let peek_key c =
  let rec go i =
    if i >= Array.length c.lines then None
    else begin
      let l = String.trim c.lines.(i) in
      if l = "" then go (i + 1)
      else
        match String.index_opt l ' ' with
        | Some j -> Some (String.sub l 0 j)
        | None -> Some l
    end
  in
  go c.pos

(* [field c key] reads the next non-blank line, checks that its leading word
   is [key] and returns the remaining tokens with the line number. *)
let field c key =
  let* ln, l = next_line c in
  let* toks = tokenize ~line:ln l in
  match toks with
  | Atom k :: rest when String.equal k key -> Ok (ln, rest)
  | Atom k :: _ -> error ln "expected field %S, found %S" key k
  | _ -> error ln "expected field %S" key

let field_int c key =
  let* ln, toks = field c key in
  let* v, rest = take_int ~line:ln toks in
  let* () = finish ~line:ln rest in
  Ok v

let field_float c key =
  let* ln, toks = field c key in
  let* v, rest = take_float ~line:ln toks in
  let* () = finish ~line:ln rest in
  Ok v

let field_str c key =
  let* ln, toks = field c key in
  let* v, rest = take_str ~line:ln toks in
  let* () = finish ~line:ln rest in
  Ok v

let field_atom c key =
  let* ln, toks = field c key in
  let* v, rest = take_atom ~line:ln toks in
  let* () = finish ~line:ln rest in
  Ok v

let field_ints c key =
  let* ln, toks = field c key in
  take_ints ~line:ln toks

(* ---------- s-expressions (compute bodies, index expressions) ---------- *)

type sexp = A of string | S of string | L of sexp list

let rec sexp_to_buf buf = function
  | A a -> Buffer.add_string buf a
  | S s -> Buffer.add_string buf (quote s)
  | L xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        sexp_to_buf buf x)
      xs;
    Buffer.add_char buf ')'

let sexp_to_string x =
  let b = Buffer.create 64 in
  sexp_to_buf b x;
  Buffer.contents b

let sexp_of_tokens ~line toks =
  let rec one = function
    | Atom a :: rest -> Ok (A a, rest)
    | Str s :: rest -> Ok (S s, rest)
    | Lparen :: rest -> list [] rest
    | Rparen :: _ -> error line "unexpected ')' in expression"
    | [] -> error line "unexpected end of expression"
  and list acc = function
    | Rparen :: rest -> Ok (L (List.rev acc), rest)
    | [] -> error line "missing ')' in expression"
    | toks ->
      let* x, rest = one toks in
      list (x :: acc) rest
  in
  let* x, rest = one toks in
  match rest with
  | [] -> Ok x
  | _ -> error line "trailing tokens after expression"

(* ---------- framing ---------- *)

let magic = "gensor-artifact"
let version = 2

let checksum payload = Digest.to_hex (Digest.string payload)

let frame payload =
  Fmt.str "%s %d\nmd5 %s\n%s" magic version (checksum payload) payload

(* Payload lines start at file line 3. *)
let payload_base = 3

let unframe text =
  match String.index_opt text '\n' with
  | None -> error 1 "not a gensor artifact (missing header line)"
  | Some i -> (
    let header = String.sub text 0 i in
    let after = i + 1 in
    match String.index_from_opt text after '\n' with
    | None -> error 2 "truncated artifact (missing checksum line)"
    | Some j ->
      let sumline = String.sub text after (j - after) in
      let payload = String.sub text (j + 1) (String.length text - j - 1) in
      let* () =
        match String.split_on_char ' ' header with
        | [ m; v ] when String.equal m magic -> (
          match int_of_string_opt v with
          | Some n when n = version -> Ok ()
          | Some n ->
            error 1 "unsupported artifact version %d (this build reads %d)" n
              version
          | None -> error 1 "malformed artifact version %S" v)
        | _ -> error 1 "not a gensor artifact (bad magic line %S)" header
      in
      let* () =
        match String.split_on_char ' ' sumline with
        | [ "md5"; hex ] ->
          if String.equal hex (checksum payload) then Ok ()
          else error 2 "checksum mismatch: artifact is corrupt or truncated"
        | _ -> error 2 "malformed checksum line %S" sumline
      in
      Ok (String.split_on_char '\n' payload))
