(* Canonical text codec for {!Tensor_lang.Compute.t}: axes, input tensor
   declarations, output/epilogue description and the full scalar body as a
   one-line s-expression.  Decoding goes through [Compute.v], so every
   well-formedness rule of the language (bound variables, declared tensors,
   in-bounds accesses) is re-checked on load — a tampered artifact cannot
   smuggle an ill-formed program past the constructor. *)

open Tensor_lang

let ( let* ) = Result.bind

let dtype_atom = Dtype.to_string

let dtype_of_atom ~line = function
  | "f16" -> Ok Dtype.F16
  | "f32" -> Ok Dtype.F32
  | "i8" -> Ok Dtype.I8
  | "i32" -> Ok Dtype.I32
  | other -> Codec.error line "unknown dtype %S" other

(* ---------- index expressions ---------- *)

let rec index_to_sexp (i : Index.t) : Codec.sexp =
  let bin name a b = Codec.L [ A name; index_to_sexp a; index_to_sexp b ] in
  match i with
  | Index.Var v -> L [ A "var"; S v ]
  | Index.Const n -> L [ A "const"; A (string_of_int n) ]
  | Index.Add (a, b) -> bin "add" a b
  | Index.Sub (a, b) -> bin "sub" a b
  | Index.Mul (a, b) -> bin "mul" a b
  | Index.Div (a, b) -> bin "div" a b
  | Index.Mod (a, b) -> bin "mod" a b
  | Index.Min (a, b) -> bin "min" a b
  | Index.Max (a, b) -> bin "max" a b

(* Raw variant constructors, not the constant-folding smart constructors:
   decode must reproduce the encoded tree exactly. *)
let rec index_of_sexp ~line (x : Codec.sexp) =
  match x with
  | Codec.L [ A "var"; S v ] -> Ok (Index.Var v)
  | Codec.L [ A "const"; A n ] -> (
    match int_of_string_opt n with
    | Some n -> Ok (Index.Const n)
    | None -> Codec.error line "bad integer %S in index expression" n)
  | Codec.L [ A op; a; b ] -> (
    let* a = index_of_sexp ~line a in
    let* b = index_of_sexp ~line b in
    match op with
    | "add" -> Ok (Index.Add (a, b))
    | "sub" -> Ok (Index.Sub (a, b))
    | "mul" -> Ok (Index.Mul (a, b))
    | "div" -> Ok (Index.Div (a, b))
    | "mod" -> Ok (Index.Mod (a, b))
    | "min" -> Ok (Index.Min (a, b))
    | "max" -> Ok (Index.Max (a, b))
    | other -> Codec.error line "unknown index operator %S" other)
  | _ -> Codec.error line "malformed index expression"

(* ---------- scalar expressions ---------- *)

let rec expr_to_sexp (e : Expr.t) : Codec.sexp =
  let bin name a b = Codec.L [ A name; expr_to_sexp a; expr_to_sexp b ] in
  match e with
  | Expr.Imm f -> L [ A "imm"; A (Codec.float_str f) ]
  | Expr.Read a ->
    L
      (A "read" :: S (Access.tensor a)
      :: List.map index_to_sexp (Access.indices a))
  | Expr.Neg a -> L [ A "neg"; expr_to_sexp a ]
  | Expr.Add (a, b) -> bin "add" a b
  | Expr.Sub (a, b) -> bin "sub" a b
  | Expr.Mul (a, b) -> bin "mul" a b
  | Expr.Div (a, b) -> bin "div" a b
  | Expr.Max (a, b) -> bin "max" a b
  | Expr.Min (a, b) -> bin "min" a b

let rec expr_of_sexp ~line (x : Codec.sexp) =
  match x with
  | Codec.L [ A "imm"; A f ] -> (
    match float_of_string_opt f with
    | Some f -> Ok (Expr.Imm f)
    | None -> Codec.error line "bad float %S in body" f)
  | Codec.L (A "read" :: S tensor :: idxs) -> (
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | i :: rest ->
        let* i = index_of_sexp ~line i in
        go (i :: acc) rest
    in
    let* indices = go [] idxs in
    match Access.v tensor indices with
    | exception Invalid_argument m -> Codec.error line "invalid access: %s" m
    | a -> Ok (Expr.Read a))
  | Codec.L [ A "neg"; a ] ->
    let* a = expr_of_sexp ~line a in
    Ok (Expr.Neg a)
  | Codec.L [ A op; a; b ] -> (
    let* a = expr_of_sexp ~line a in
    let* b = expr_of_sexp ~line b in
    match op with
    | "add" -> Ok (Expr.Add (a, b))
    | "sub" -> Ok (Expr.Sub (a, b))
    | "mul" -> Ok (Expr.Mul (a, b))
    | "div" -> Ok (Expr.Div (a, b))
    | "max" -> Ok (Expr.Max (a, b))
    | "min" -> Ok (Expr.Min (a, b))
    | other -> Codec.error line "unknown body operator %S" other)
  | _ -> Codec.error line "malformed body expression"

(* ---------- compute ---------- *)

let combine_atom = function Compute.Sum -> "sum" | Compute.Max_combine -> "max"

let combine_of_atom ~line = function
  | "sum" -> Ok Compute.Sum
  | "max" -> Ok Compute.Max_combine
  | other -> Codec.error line "unknown combine %S" other

let encode b c =
  let axes = Compute.axes c in
  let inputs = Compute.inputs c in
  Codec.field b "compute" Codec.str (Compute.name c);
  Codec.field b "axes" Codec.int (List.length axes);
  List.iter
    (fun ax ->
      Codec.key b "axis";
      Codec.atom b (if Axis.is_reduce ax then "r" else "s");
      Codec.str b (Axis.name ax);
      Codec.int b (Axis.extent ax);
      Codec.eol b)
    axes;
  Codec.field b "inputs" Codec.int (List.length inputs);
  List.iter
    (fun (i : Compute.input) ->
      Codec.key b "input";
      Codec.str b i.in_name;
      Codec.atom b (dtype_atom i.in_dtype);
      List.iter (Codec.int b) i.in_shape;
      Codec.eol b)
    inputs;
  Codec.key b "out";
  Codec.str b (Compute.out_name c);
  Codec.atom b (dtype_atom (Compute.out_dtype c));
  Codec.float b (Compute.init c);
  Codec.float b (Compute.scale c);
  Codec.atom b (combine_atom (Compute.combine c));
  Codec.eol b;
  let expr k e = Codec.field b k Codec.sexp (expr_to_sexp e) in
  expr "body" (Compute.body c);
  Option.iter (expr "epilogue") (Compute.epilogue c)

let ( let+ ) r f = Result.map f r

let rec times n f acc =
  if n <= 0 then Ok (List.rev acc)
  else
    let* x = f () in
    times (n - 1) f (x :: acc)

let decode cur =
  let start = Codec.lineno cur in
  let* name = Codec.field_str cur "compute" in
  let* n_axes = Codec.field_int cur "axes" in
  let* () =
    if n_axes >= 1 && n_axes <= 64 then Ok ()
    else Codec.error start "implausible axis count %d" n_axes
  in
  let* axes =
    times n_axes
      (fun () ->
        let* l = Codec.line cur "axis" in
        let ln = Codec.line_number l in
        let* kind = Codec.get_atom l in
        let* kind =
          match kind with
          | "s" -> Ok Axis.Spatial
          | "r" -> Ok Axis.Reduce
          | other -> Codec.error ln "unknown axis kind %S" other
        in
        let* aname = Codec.get_str l in
        let* extent = Codec.get_int l in
        let* () = Codec.close l in
        match Axis.v ~kind aname extent with
        | exception Invalid_argument m -> Codec.error ln "invalid axis: %s" m
        | ax -> Ok ax)
      []
  in
  let* n_inputs = Codec.field_int cur "inputs" in
  let* () =
    if n_inputs >= 0 && n_inputs <= 64 then Ok ()
    else Codec.error start "implausible input count %d" n_inputs
  in
  let* inputs =
    times n_inputs
      (fun () ->
        let* l = Codec.line cur "input" in
        let* in_name = Codec.get_str l in
        let* dt = Codec.get_atom l in
        let* in_dtype = dtype_of_atom ~line:(Codec.line_number l) dt in
        let+ in_shape = Codec.get_ints l in
        { Compute.in_name; in_shape; in_dtype })
      []
  in
  let* l = Codec.line cur "out" in
  let ln_out = Codec.line_number l in
  let* out_name = Codec.get_str l in
  let* dt = Codec.get_atom l in
  let* out_dtype = dtype_of_atom ~line:ln_out dt in
  let* init = Codec.get_float l in
  let* scale = Codec.get_float l in
  let* comb = Codec.get_atom l in
  let* combine = combine_of_atom ~line:ln_out comb in
  let* () = Codec.close l in
  let expr key =
    let* l = Codec.line cur key in
    let* x = Codec.get_sexp l in
    expr_of_sexp ~line:(Codec.line_number l) x
  in
  let* body = expr "body" in
  (* Optional trailing field: fused computes carry a pointwise epilogue. *)
  let* epilogue =
    match Codec.peek_key cur with
    | Some "epilogue" ->
      let* e = expr "epilogue" in
      Ok (Some e)
    | _ -> Ok None
  in
  match
    Compute.v ~name ~axes ~inputs ~out_name ~out_dtype ~init ~combine ~scale
      ?epilogue ~body ()
  with
  | exception Invalid_argument m ->
    Codec.error start "invalid compute definition: %s" m
  | c -> Ok c

(* Content identity of a compute definition: MD5 over its canonical
   encoding.  Used by the store to key artifacts. *)
let fingerprint c = Codec.digest_lines (Codec.to_string encode c)
