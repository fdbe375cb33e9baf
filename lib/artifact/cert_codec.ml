(* Text codec for {!Verify.Cert.t} — the shape-region legality certificate
   an artifact can carry next to its schedule.

   Affine forms travel as [<const> <nterms> (<coeff> <name>)*]; symbol
   names are quoted (axis names are free text), codes and numbers are
   atoms.  Decoding rebuilds canonical forms through the {!Cert.Affine}
   constructors, so a round-tripped certificate is structurally equal to
   the original. *)

open Verify
module Affine = Cert.Affine

let ( let* ) = Result.bind

let encode_affine b a =
  let syms = Affine.syms a in
  Codec.int b (Affine.offset a);
  Codec.int b (List.length syms);
  List.iter
    (fun s ->
      Codec.int b (Affine.coeff a s);
      Codec.str b s)
    syms

let rec decode_terms l n acc =
  if n <= 0 then Ok acc
  else
    let* coeff = Codec.get_int l in
    let* name = Codec.get_str l in
    decode_terms l (n - 1) (Affine.add acc (Affine.sym ~coeff name))

let decode_affine l =
  let* const = Codec.get_int l in
  let* n = Codec.get_int l in
  let* () =
    if n >= 0 && n <= 1_000 then Ok ()
    else Codec.error (Codec.line_number l) "implausible term count %d" n
  in
  decode_terms l n (Affine.const const)

let rec times n f acc =
  if n <= 0 then Ok (List.rev acc)
  else
    let* x = f () in
    times (n - 1) f (x :: acc)

let counted cur key decode_one =
  let start = Codec.lineno cur in
  let* n = Codec.field_int cur key in
  let* () =
    if n >= 0 && n <= 10_000 then Ok ()
    else Codec.error start "implausible %s count %d" key n
  in
  times n (fun () -> decode_one cur) []

let encode b (c : Cert.t) =
  let counted k xs line =
    Codec.field b k Codec.int (List.length xs);
    List.iter
      (fun x ->
        line x;
        Codec.eol b)
      xs
  in
  Codec.field b "cert_device" Codec.str c.Cert.device;
  Codec.field b "cert_sig" Codec.str c.Cert.witness_sig;
  counted "cert_syms" c.Cert.syms (fun (s, r) ->
      Codec.key b "sym";
      Codec.str b s;
      Codec.int b (Tensor_lang.Interval.lo r);
      Codec.int b (Tensor_lang.Interval.hi r));
  counted "cert_constraints" c.Cert.constraints (fun (k : Cert.constr) ->
      Codec.key b "constr";
      encode_affine b k.Cert.lhs;
      encode_affine b k.Cert.rhs);
  counted "cert_guards" c.Cert.guards (fun (g : Cert.guard) ->
      Codec.key b "guard";
      Codec.int b g.Cert.divisor;
      Codec.str b g.Cert.g_sym);
  counted "cert_witness" c.Cert.witness (fun (n, e) ->
      Codec.key b "wit";
      Codec.str b n;
      Codec.int b e)

let decode cur =
  let* device = Codec.field_str cur "cert_device" in
  let* witness_sig = Codec.field_str cur "cert_sig" in
  let* syms =
    counted cur "cert_syms" (fun cur ->
        let* l = Codec.line cur "sym" in
        let* name = Codec.get_str l in
        let* lo = Codec.get_int l in
        let* hi = Codec.get_int l in
        let* () = Codec.close l in
        if lo > hi then
          Codec.error (Codec.line_number l) "empty range for symbol %s" name
        else Ok (name, Tensor_lang.Interval.v lo hi))
  in
  let* constraints =
    counted cur "cert_constraints" (fun cur ->
        let* l = Codec.line cur "constr" in
        let* lhs = decode_affine l in
        let* rhs = decode_affine l in
        let* () = Codec.close l in
        Ok { Cert.lhs; rhs })
  in
  let* guards =
    counted cur "cert_guards" (fun cur ->
        let* l = Codec.line cur "guard" in
        let* divisor = Codec.get_int l in
        let* g_sym = Codec.get_str l in
        let* () = Codec.close l in
        if divisor <= 0 then
          Codec.error (Codec.line_number l) "non-positive guard divisor"
        else Ok { Cert.divisor; g_sym })
  in
  let* witness =
    counted cur "cert_witness" (fun cur ->
        let* l = Codec.line cur "wit" in
        let* name = Codec.get_str l in
        let* extent = Codec.get_int l in
        let* () = Codec.close l in
        Ok (name, extent))
  in
  Ok { Cert.device; syms; constraints; guards; witness; witness_sig }
