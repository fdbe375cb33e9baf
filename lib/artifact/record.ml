(* The compilation artifact: everything needed to reuse a tuned schedule in
   another process — the compute definition, the scheduled ETIR state, its
   predicted metrics, the device it was tuned for, and provenance (method,
   search seed, construction steps, verify status).

   [encode] fills one buffer with the payload and frames it; [decode] is
   its total inverse.  The embedded device fingerprint is checked against
   the one computed from the decoded spec, so a hand-edited device section
   cannot masquerade as a different GPU's tuning. *)

let ( let* ) = Result.bind

type verify_status = Not_verified | Verified of Verify.Diagnostic.t list

type t = {
  method_name : string;
  seed : int option;  (** search seed the schedule was tuned with *)
  steps : int;  (** construction states explored to find it *)
  device : Hardware.Gpu_spec.t;
  device_fingerprint : string;
  compute : Tensor_lang.Compute.t;
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  verify : verify_status;
  cert : Verify.Cert.t option;
}

let v ~method_name ?seed ?(steps = 0) ?verify ?cert ~device ~etir ~metrics () =
  let verify =
    match verify with None -> Not_verified | Some ds -> Verified ds
  in
  { method_name; seed; steps; device;
    device_fingerprint = Gpu_codec.fingerprint device;
    compute = Sched.Etir.compute etir; etir; metrics; verify; cert }

let compute_fingerprint t = Compute_codec.fingerprint t.compute

let verify_errors t =
  match t.verify with
  | Not_verified -> 0
  | Verified ds -> List.length (Verify.Diagnostic.errors ds)

let shape_string t =
  String.concat "x"
    (List.map
       (fun ax -> string_of_int (Tensor_lang.Axis.extent ax))
       (Tensor_lang.Compute.axes t.compute))

let encode t =
  let b = Buffer.create 2048 in
  let line k = Codec.field b k in
  line "method" Codec.str t.method_name;
  (match t.seed with
  | None -> line "seed" Codec.atom "none"
  | Some s -> line "seed" Codec.int s);
  line "steps" Codec.int t.steps;
  line "device_fp" Codec.atom t.device_fingerprint;
  Gpu_codec.encode b t.device;
  Compute_codec.encode b t.compute;
  Etir_codec.encode b t.etir;
  Metrics_codec.encode b t.metrics;
  (match t.verify with
  | Not_verified -> line "verify" Codec.atom "none"
  | Verified ds ->
    line "verify" Codec.atom "run";
    Verify_codec.encode b ds);
  (match t.cert with
  | None -> line "cert" Codec.atom "none"
  | Some c ->
    line "cert" Codec.atom "some";
    Cert_codec.encode b c);
  Codec.frame (Buffer.contents b)

(* Device sections one scan has decoded, by exact text, with their specs
   and fingerprints.  A store holds records for a handful of devices, so a
   list searched by in-place comparison is enough. *)
type devices = {
  mutable known : (string * Hardware.Gpu_spec.t * string) list;
}

let devices () = { known = [] }
let devices_decoded d = List.length d.known

(* The device section at the cursor with its fingerprint.  A section whose
   text [d] already holds is skipped, not decoded again: decoding is a
   function of the text alone. *)
let decode_device d cur =
  match List.find_opt (fun (text, _, _) -> Codec.skip cur text) d.known with
  | Some (_, hw, fp) -> Ok (hw, fp)
  | None ->
    let m = Codec.mark cur in
    let* hw = Gpu_codec.decode cur in
    let fp = Gpu_codec.fingerprint hw in
    d.known <- (Codec.since cur m, hw, fp) :: d.known;
    Ok (hw, fp)

(* A one-word field with its line number. *)
let tag cur key =
  let* l = Codec.line cur key in
  let* a = Codec.get_atom l in
  let* () = Codec.close l in
  Ok (Codec.line_number l, a)

let decode ?(devices = devices ()) text =
  let* cur = Codec.unframe text in
  let* method_name = Codec.field_str cur "method" in
  let* ln_seed, seed = tag cur "seed" in
  let* seed =
    match (seed, int_of_string_opt seed) with
    | "none", _ -> Ok None
    | _, Some s -> Ok (Some s)
    | _, None -> Codec.error ln_seed "expected integer, got %S" seed
  in
  let* steps = Codec.field_int cur "steps" in
  let* fp_ln, claimed_fp = tag cur "device_fp" in
  let* device, actual = decode_device devices cur in
  let* () =
    if String.equal actual claimed_fp then Ok ()
    else
      Codec.error fp_ln
        "device fingerprint mismatch: header says %s, spec hashes to %s"
        claimed_fp actual
  in
  let* compute = Compute_codec.decode cur in
  let* etir = Etir_codec.decode ~compute cur in
  let* metrics = Metrics_codec.decode cur in
  let* vln, vtag = tag cur "verify" in
  let* verify =
    match vtag with
    | "none" -> Ok Not_verified
    | "run" ->
      let* ds = Verify_codec.decode cur in
      Ok (Verified ds)
    | other -> Codec.error vln "unknown verify status %S" other
  in
  let* cln, ctag = tag cur "cert" in
  let* cert =
    match ctag with
    | "none" -> Ok None
    | "some" ->
      let* c = Cert_codec.decode cur in
      Ok (Some c)
    | other -> Codec.error cln "unknown cert status %S" other
  in
  if Codec.at_end cur then
    Ok
      { method_name; seed; steps; device;
        device_fingerprint = claimed_fp; compute; etir; metrics; verify;
        cert }
  else Codec.error (Codec.lineno cur) "trailing content after artifact body"

let pp_summary ppf t =
  Fmt.pf ppf "%s %s [%s] device=%s score=%.3g steps=%d%s"
    (Tensor_lang.Compute.name t.compute)
    (shape_string t) t.method_name t.device_fingerprint
    (Costmodel.Metrics.score t.metrics)
    t.steps
    (match t.verify with
    | Not_verified -> ""
    | Verified ds ->
      let errs = List.length (Verify.Diagnostic.errors ds) in
      if errs = 0 then Fmt.str " verified(%d diags)" (List.length ds)
      else Fmt.str " VERIFY-ERRORS=%d" errs)
