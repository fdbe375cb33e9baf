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

(* ---------- writer ---------- *)

(* Encoders append whole lines to one [Buffer]: [key] starts a line, each
   value is appended after one space, [eol] ends the line.  No Format
   machinery runs; only a float goes through [Printf].  Quoted strings are
   [%S]: [String.escaped] between quotes, which never emits a raw newline,
   space, paren or quote character, so they read back unambiguously on one
   line.  "%.17g" round-trips every finite float64 exactly through
   [float_of_string]; nan and inf print as parseable atoms too. *)

let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let float_str f = Printf.sprintf "%.17g" f

let key b k = Buffer.add_string b k
let eol b = Buffer.add_char b '\n'

let atom b a =
  Buffer.add_char b ' ';
  Buffer.add_string b a

let int b n = atom b (string_of_int n)
let float b f = atom b (float_str f)

let str b s =
  Buffer.add_char b ' ';
  add_quoted b s

let field b k put v =
  key b k;
  put b v;
  eol b

let to_string encode x =
  let b = Buffer.create 1024 in
  encode b x;
  Buffer.contents b

(* MD5 hex of an encoding's lines joined by newlines: the text minus its
   final newline. *)
let digest_lines text =
  Digest.to_hex (Digest.substring text 0 (max 0 (String.length text - 1)))

(* ---------- reader ---------- *)

(* Characters of a bare word: anything but blanks, parens and quotes. *)
let is_atom_char c =
  not (c = ' ' || c = '\t' || c = '(' || c = ')' || c = '"')

let rec skip_space s i stop =
  if i < stop && (s.[i] = ' ' || s.[i] = '\t') then skip_space s (i + 1) stop
  else i

let rec atom_end s i stop =
  if i < stop && is_atom_char s.[i] then atom_end s (i + 1) stop else i

(* The string literal whose opening quote is at [i]: its value and the
   offset after its closing quote.  The raw text is the value unless it
   holds a backslash; only then does [Scanf.unescaped] run. *)
let literal ~line s i stop =
  let rec close j escaped =
    if j >= stop then error line "unterminated string literal"
    else
      match s.[j] with
      | '\\' ->
        if j + 1 >= stop then error line "unterminated string literal"
        else close (j + 2) true
      | '"' -> (
        let raw = String.sub s (i + 1) (j - i - 1) in
        if not escaped then Ok (raw, j + 1)
        else
          match Scanf.unescaped raw with
          | exception _ -> error line "bad escape sequence in string %S" raw
          | v -> Ok (v, j + 1))
      | _ -> close (j + 1) escaped
  in
  close (i + 1) false

(* ---------- line cursor ---------- *)

(* A cursor walks one string by line offsets: [pos] is the byte offset of
   the next unread line and [line] its file line number.  Lines are never
   copied; fields are read in place. *)
type cursor = { text : string; mutable pos : int; mutable line : int }

let cursor text = { text; pos = 0; line = 1 }

let lineno c = c.line

(* Does [sub] occur in [s] at offset [i]? *)
let occurs_at s i sub =
  let n = String.length sub in
  let rec same k = k = n || (s.[i + k] = sub.[k] && same (k + 1)) in
  i + n <= String.length s && same 0

let mark c = c.pos
let since c m = String.sub c.text m (min c.pos (String.length c.text) - m)

(* Consume [s] when the text continues with it.  [s] must end a line, so a
   match never stops inside one. *)
let skip c s =
  let n = String.length s in
  n > 0
  && s.[n - 1] = '\n'
  && occurs_at c.text c.pos s
  && begin
    c.pos <- c.pos + n;
    String.iter (fun ch -> if ch = '\n' then c.line <- c.line + 1) s;
    true
  end

let line_end c i =
  match String.index_from_opt c.text i '\n' with
  | Some j -> j
  | None -> String.length c.text

(* Blank as [String.trim] sees it. *)
let blank c i stop =
  let rec go i =
    i >= stop
    || (match c.text.[i] with
       | ' ' | '\t' | '\r' | '\012' -> go (i + 1)
       | _ -> false)
  in
  go i

(* Offset, end and file line number of the next non-blank line at or
   after [pos]; [None] at the end of the text. *)
let rec seek c pos line =
  if pos >= String.length c.text then None
  else
    let stop = line_end c pos in
    if blank c pos stop then seek c (stop + 1) (line + 1)
    else Some (pos, stop, line)

let at_end c = seek c c.pos c.line = None

(* First word of the next non-blank line, without consuming anything —
   lets decoders branch on optional trailing fields. *)
let peek_key c =
  match seek c c.pos c.line with
  | None -> None
  | Some (i, stop, _) ->
    let i = skip_space c.text i stop in
    Some (String.sub c.text i (atom_end c.text i stop - i))

(* ---------- fields ---------- *)

(* The values of one field line, read in place from [i] up to [stop]. *)
type line = { s : string; mutable i : int; stop : int; ln : int }

let line_number l = l.ln

(* Consume the next non-blank line and check in place that its leading
   word is [key]. *)
let line c key =
  match seek c c.pos c.line with
  | None -> error c.line "unexpected end of artifact payload"
  | Some (i, stop, ln) ->
    c.pos <- stop + 1;
    c.line <- ln + 1;
    let s = c.text in
    let i = skip_space s i stop in
    let j = atom_end s i stop in
    if j - i = String.length key && occurs_at s i key then
      Ok { s; i = j; stop; ln }
    else if j > i then
      error ln "expected field %S, found %S" key (String.sub s i (j - i))
    else error ln "expected field %S" key

(* Skips blanks; returns the end of the bare word at the read position,
   which is the position itself when the next token is not a word. *)
let word l =
  l.i <- skip_space l.s l.i l.stop;
  atom_end l.s l.i l.stop

(* What [what] found instead, as an error. *)
let mismatch l what =
  if l.i >= l.stop then error l.ln "expected %s, got end of line" what
  else
    match l.s.[l.i] with
    | '(' | ')' -> error l.ln "expected %s, got parenthesis" what
    | '"' ->
      let* v, _ = literal ~line:l.ln l.s l.i l.stop in
      error l.ln "expected %s, got string %S" what v
    | _ ->
      error l.ln "expected %s, got %S" what
        (String.sub l.s l.i (atom_end l.s l.i l.stop - l.i))

(* A bare word parsed by [conv], or the word itself as the error. *)
let get_word what conv l =
  let j = word l in
  if j = l.i then mismatch l what
  else
    let a = String.sub l.s l.i (j - l.i) in
    match conv a with
    | Some v ->
      l.i <- j;
      Ok v
    | None -> error l.ln "expected %s, got %S" what a

let get_atom l = get_word "bare word" Option.some l
let get_float l = get_word "float" float_of_string_opt l

let get_int l = get_word "integer" int_of_string_opt l

let get_str l =
  l.i <- skip_space l.s l.i l.stop;
  if l.i < l.stop && l.s.[l.i] = '"' then begin
    let* v, j = literal ~line:l.ln l.s l.i l.stop in
    l.i <- j;
    Ok v
  end
  else mismatch l "quoted string"

let get_ints l =
  let rec go acc =
    l.i <- skip_space l.s l.i l.stop;
    if l.i >= l.stop then Ok (List.rev acc)
    else
      let* v = get_int l in
      go (v :: acc)
  in
  go []

let close l =
  l.i <- skip_space l.s l.i l.stop;
  if l.i >= l.stop then Ok () else error l.ln "trailing tokens on line"

let field_one get c key =
  let* l = line c key in
  let* v = get l in
  let* () = close l in
  Ok v

let field_int c key = field_one get_int c key
let field_float c key = field_one get_float c key
let field_str c key = field_one get_str c key

let field_ints c key =
  let* l = line c key in
  get_ints l

(* ---------- s-expressions (compute bodies, index expressions) ---------- *)

type sexp = A of string | S of string | L of sexp list

let rec add_sexp buf = function
  | A a -> Buffer.add_string buf a
  | S s -> add_quoted buf s
  | L xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        add_sexp buf x)
      xs;
    Buffer.add_char buf ')'

let sexp b x =
  Buffer.add_char b ' ';
  add_sexp b x

(* One expression filling the rest of the line, parsed in place. *)
let get_sexp l =
  let s = l.s and stop = l.stop and line = l.ln in
  let rec one i =
    let i = skip_space s i stop in
    if i >= stop then error line "unexpected end of expression"
    else
      match s.[i] with
      | '(' -> list [] (i + 1)
      | ')' -> error line "unexpected ')' in expression"
      | '"' ->
        let* v, j = literal ~line s i stop in
        Ok (S v, j)
      | _ ->
        let j = atom_end s i stop in
        Ok (A (String.sub s i (j - i)), j)
  and list acc i =
    let i = skip_space s i stop in
    if i >= stop then error line "missing ')' in expression"
    else if s.[i] = ')' then Ok (L (List.rev acc), i + 1)
    else
      let* x, j = one i in
      list (x :: acc) j
  in
  let* x, j = one l.i in
  l.i <- j;
  if skip_space s j stop = stop then Ok x
  else error line "trailing tokens after expression"

(* ---------- framing ---------- *)

let magic = "gensor-artifact"
let version = 2

let checksum payload = Digest.to_hex (Digest.string payload)

let frame payload =
  String.concat ""
    [ magic; " "; string_of_int version; "\nmd5 "; checksum payload; "\n";
      payload ]

(* The payload is checksummed and read in place: its lines start at file
   line 3. *)
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
          let n = String.length text - j - 1 in
          let sum = Digest.substring text (j + 1) n in
          if String.equal hex (Digest.to_hex sum) then Ok ()
          else error 2 "checksum mismatch: artifact is corrupt or truncated"
        | _ -> error 2 "malformed checksum line %S" sumline
      in
      Ok { text; pos = j + 1; line = 3 })
