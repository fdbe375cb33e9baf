(* The artifact layer's contract (ISSUE 3):
   - every codec satisfies the round-trip law [decode (encode x) = x]
     (checked as canonical re-encoding equality, plus [Etir.eval_equal] for
     schedules) under QCheck over adversarial inputs — operator and tensor
     names containing the old flat-key joiner characters, extreme floats;
   - every decode path is total: truncated files, corrupted payloads, stale
     versions and tampered fields yield positioned [Error]s, never an
     exception or a silently wrong value;
   - the store round-trips records through disk, skips corrupt entries with
     a diagnostic, and serves exact lookups to a fresh open. *)

open Tensor_lang

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let hw = Hardware.Presets.rtx4090

(* ---------- generators ---------- *)

(* Names exercising the characters the old flat keys joined on, plus
   escapes the quoted format must survive. *)
let weird_names =
  [ "gemm"; "op|x"; "a,b"; "k~"; "has space"; "qu\"ote"; "back\\slash";
    "newline\nname"; "x" ]

let gen_name st = QCheck.Gen.oneofl weird_names st

let gen_dtype st = QCheck.Gen.oneofl [ Dtype.F16; Dtype.F32; Dtype.I8; Dtype.I32 ] st

let gen_float st =
  QCheck.Gen.oneofl
    [ 0.0; 1.0; -1.0; 0.5; -0.0; 1e-30; 3.25e13; Float.pi; 1.0 /. 3.0;
      -2.75e-7 ]
    st

(* Three structurally distinct families; axis and tensor names drawn from
   the adversarial pool. *)
let gen_compute st =
  let open QCheck.Gen in
  let name = gen_name st in
  let m = int_range 2 48 st and n = int_range 2 48 st in
  let k = int_range 2 48 st in
  let dt = gen_dtype st in
  let init = gen_float st and scale = oneofl [ 1.0; 0.5; 0.0625 ] st in
  match int_range 0 2 st with
  | 0 ->
    (* GEMM-shaped: 2 spatial + 1 reduce, two inputs. *)
    Compute.v ~name
      ~axes:
        [ Axis.v "i|" m; Axis.v "j,x" n; Axis.v ~kind:Axis.Reduce "k~" k ]
      ~inputs:
        [ { Compute.in_name = "A|1"; in_shape = [ m; k ]; in_dtype = dt };
          { Compute.in_name = "B x"; in_shape = [ k; n ]; in_dtype = dt } ]
      ~out_name:"C" ~out_dtype:dt ~init ~scale
      ~body:
        (Expr.Mul
           ( Expr.Read (Access.v "A|1" [ Index.Var "i|"; Index.Var "k~" ]),
             Expr.Read (Access.v "B x" [ Index.Var "k~"; Index.Var "j,x" ]) ))
      ()
  | 1 ->
    (* Elementwise epilogue: spatial only. *)
    Compute.v ~name
      ~axes:[ Axis.v "i" m; Axis.v "j" n ]
      ~inputs:[ { Compute.in_name = "X"; in_shape = [ m; n ]; in_dtype = dt } ]
      ~out_name:"Y" ~out_dtype:dt ~scale
      ~body:
        (Expr.Max
           ( Expr.Read (Access.v "X" [ Index.Var "i"; Index.Var "j" ]),
             Expr.Imm (gen_float st) ))
      ()
  | _ ->
    (* Max-reduction with an index-arithmetic access. *)
    Compute.v ~name
      ~axes:[ Axis.v "i" m; Axis.v ~kind:Axis.Reduce "k" k ]
      ~inputs:
        [ { Compute.in_name = "V"; in_shape = [ m; k ]; in_dtype = dt } ]
      ~out_name:"O" ~out_dtype:dt ~init ~combine:Compute.Max_combine
      ~body:
        (Expr.Neg
           (Expr.Read
              (Access.v "V"
                 [ Index.Var "i";
                   Index.Min (Index.Var "k", Index.Const (k - 1)) ])))
      ()

let print_compute c = Fmt.str "%a" Compute.pp c

(* Random schedulable state over a random compute: tiles in [1, extent]
   per level, vthreads within the thread tile, random cursor. *)
let gen_etir st =
  let open QCheck.Gen in
  let c = gen_compute st in
  let e = Sched.Etir.create c in
  let spatial = Sched.Etir.spatial_extents e in
  let reduce = Sched.Etir.reduce_extents e in
  let e = ref e in
  for level = 0 to Sched.Etir.num_levels !e do
    Array.iteri
      (fun dim ext ->
        e := Sched.Etir.with_stile !e ~level ~dim (int_range 1 ext st))
      spatial;
    Array.iteri
      (fun dim ext ->
        e := Sched.Etir.with_rtile !e ~level ~dim (int_range 1 ext st))
      reduce
  done;
  Array.iteri
    (fun dim _ ->
      let cap = max 1 (Sched.Etir.stile !e ~level:0 ~dim) in
      e := Sched.Etir.with_vthread !e ~dim (int_range 1 cap st))
    spatial;
  e := Sched.Etir.with_cur_level !e (int_range 0 (Sched.Etir.num_levels !e) st);
  match Sched.Etir.validate !e with
  | Ok () -> !e
  | Error _ -> QCheck.assume_fail ()

let gen_metrics st =
  { Costmodel.Metrics.exec_time_s = gen_float st;
    achieved_flops = gen_float st;
    compute_throughput = gen_float st;
    sm_occupancy = gen_float st;
    mem_busy = gen_float st;
    l2_hit_rate = gen_float st;
    dram_bytes = gen_float st;
    l2_bytes = gen_float st;
    smem_bytes = gen_float st;
    bank_conflict_factor = gen_float st;
    threads_per_block = QCheck.Gen.int_range 1 1024 st;
    grid_blocks = QCheck.Gen.int_range 1 100_000 st;
    footprints =
      Array.init
        (QCheck.Gen.int_range 0 4 st)
        (fun _ -> QCheck.Gen.int_range 0 1_000_000 st) }

(* Random device spec shaped like the presets (register / smem / L2 / DRAM)
   so [Gpu_spec.v]'s hierarchy rules hold by construction. *)
let gen_gpu st =
  let open QCheck.Gen in
  let level name scope cap bw lat banks =
    Hardware.Mem_level.v ~name ~scope ~capacity_bytes:cap ~bandwidth_gbs:bw
      ~latency_cycles:lat ~banks ~bank_width_bytes:4 ()
  in
  let reg_cap = int_range 64 2048 st in
  let smem_cap = int_range 16_384 262_144 st in
  let l2_cap = int_range 1_000_000 100_000_000 st in
  let dram_cap = int_range 1_000_000_000 100_000_000_000 st in
  match
    Hardware.Gpu_spec.v
      ~name:(gen_name st)
      ~sm_count:(int_range 1 256 st)
      ~cores_per_sm:(int_range 32 256 st)
      ~clock_ghz:(oneofl [ 0.625; 1.3; 2.52 ] st)
      ~warp_size:32
      ~max_threads_per_sm:(oneofl [ 1024; 1536; 2048 ] st)
      ~max_threads_per_block:1024
      ~registers_per_sm:(oneofl [ 32_768; 65_536 ] st)
      ~power_watts:(oneofl [ 15.0; 450.0 ] st)
      ~levels:
        [| level "reg" Hardware.Mem_level.Per_thread reg_cap 40_000.0 1.0
             (int_range 1 8 st);
           level "smem" Hardware.Mem_level.Per_block smem_cap 19_000.0
             (float_of_int (int_range 20 40 st))
             32;
           level "l2" Hardware.Mem_level.Device l2_cap 5_000.0 200.0 1;
           level "dram" Hardware.Mem_level.Device dram_cap 1_000.0 500.0 1
        |]
  with
  | hw -> hw
  | exception Invalid_argument _ -> QCheck.assume_fail ()

let gen_diag st =
  let open QCheck.Gen in
  { Verify.Diagnostic.code =
      oneofl [ "GSR-B01"; "GSR-B08"; "GSR-R02"; "GSR-L02"; "GSR-C04" ] st;
    severity =
      oneofl
        [ Verify.Diagnostic.Error; Verify.Diagnostic.Warning;
          Verify.Diagnostic.Info ]
        st;
    pass =
      oneofl
        [ Verify.Diagnostic.Bounds; Verify.Diagnostic.Race;
          Verify.Diagnostic.Lint; Verify.Diagnostic.Cert ]
        st;
    loc = gen_name st;
    message = oneofl [ "plain"; "with \"quotes\""; "tab\there"; "nl\nhere" ] st }

let gen_diags st = QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) gen_diag st

(* Random shape-region certificate: adversarial names everywhere, affine
   constraints with negative constants and coefficients. *)
let gen_affine st =
  let open QCheck.Gen in
  let f = ref (Verify.Cert.Affine.const (int_range (-100) 100 st)) in
  for i = 1 to int_range 0 3 st do
    f :=
      Verify.Cert.Affine.add !f
        (Verify.Cert.Affine.sym
           ~coeff:(int_range (-8) 8 st)
           (Fmt.str "%s%d" (gen_name st) i))
  done;
  !f

let gen_cert st =
  let open QCheck.Gen in
  let sym i =
    let lo = int_range 1 64 st in
    (Fmt.str "%s%d" (gen_name st) i, Interval.v lo (lo + int_range 0 512 st))
  in
  { Verify.Cert.device = gen_name st;
    syms = List.init (int_range 0 3 st) sym;
    constraints =
      List.init (int_range 0 2 st) (fun _ ->
          { Verify.Cert.lhs = gen_affine st; rhs = gen_affine st });
    guards =
      List.init (int_range 0 3 st) (fun i ->
          { Verify.Cert.divisor = int_range 1 32 st;
            g_sym = Fmt.str "%s%d" (gen_name st) i });
    witness =
      List.init (int_range 0 4 st) (fun i ->
          (Fmt.str "%s%d" (gen_name st) i, int_range 1 4096 st));
    witness_sig = gen_name st }

(* A full artifact: random schedule, metrics from the real cost model. *)
let gen_record st =
  let etir = gen_etir st in
  let metrics = Costmodel.Model.evaluate ~hw etir in
  Artifact.Record.v ~method_name:(gen_name st)
    ?seed:(QCheck.Gen.oneofl [ None; Some 0; Some 42; Some (-7) ] st)
    ~steps:(QCheck.Gen.int_range 0 10_000 st)
    ?verify:(QCheck.Gen.oneofl [ None; Some [] ] st)
    ~device:hw ~etir ~metrics ()

let gen_record_verified st =
  let r = gen_record st in
  let r =
    { r with Artifact.Record.verify = Artifact.Record.Verified (gen_diags st) }
  in
  if QCheck.Gen.bool st then
    { r with Artifact.Record.cert = Some (gen_cert st) }
  else r

(* ---------- round-trip laws ---------- *)

let fail_error what (e : Artifact.Codec.error) =
  Alcotest.failf "%s failed to decode: %s" what
    (Artifact.Codec.error_to_string e)

let prop_compute_roundtrip =
  QCheck.Test.make ~count:300 ~name:"compute codec round-trips"
    (QCheck.make gen_compute ~print:print_compute)
    (fun c ->
      let text = Artifact.Codec.to_string Artifact.Compute_codec.encode c in
      match Artifact.Compute_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "compute" e
      | Ok c' ->
        Artifact.Codec.to_string Artifact.Compute_codec.encode c' = text
        && Artifact.Compute_codec.fingerprint c'
           = Artifact.Compute_codec.fingerprint c)

let prop_etir_roundtrip =
  QCheck.Test.make ~count:300 ~name:"etir codec round-trips"
    (QCheck.make gen_etir ~print:(Fmt.str "%a" Sched.Etir.pp))
    (fun e ->
      let text = Artifact.Codec.to_string Artifact.Etir_codec.encode e in
      match
        Artifact.Etir_codec.decode ~compute:(Sched.Etir.compute e)
          (Artifact.Codec.cursor text)
      with
      | Error err -> fail_error "etir" err
      | Ok e' ->
        Sched.Etir.eval_equal e e'
        && Sched.Etir.cur_level e' = Sched.Etir.cur_level e
        && Artifact.Codec.to_string Artifact.Etir_codec.encode e' = text)

let prop_metrics_roundtrip =
  QCheck.Test.make ~count:300 ~name:"metrics codec round-trips exactly"
    (QCheck.make gen_metrics ~print:(Fmt.str "%a" Costmodel.Metrics.pp))
    (fun m ->
      let text = Artifact.Codec.to_string Artifact.Metrics_codec.encode m in
      match Artifact.Metrics_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "metrics" e
      | Ok m' ->
        m' = m
        && Artifact.Codec.to_string Artifact.Metrics_codec.encode m' = text)

let prop_gpu_roundtrip =
  QCheck.Test.make ~count:300 ~name:"gpu codec round-trips, stable fingerprint"
    (QCheck.make gen_gpu ~print:Hardware.Gpu_spec.name)
    (fun hw ->
      let text = Artifact.Codec.to_string Artifact.Gpu_codec.encode hw in
      match Artifact.Gpu_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "gpu" e
      | Ok hw' ->
        Artifact.Codec.to_string Artifact.Gpu_codec.encode hw' = text
        && Artifact.Gpu_codec.fingerprint hw'
           = Artifact.Gpu_codec.fingerprint hw)

let prop_verify_roundtrip =
  QCheck.Test.make ~count:300 ~name:"verify codec round-trips"
    (QCheck.make gen_diags
       ~print:(Fmt.str "%a" Verify.Diagnostic.pp_report))
    (fun ds ->
      let text = Artifact.Codec.to_string Artifact.Verify_codec.encode ds in
      match Artifact.Verify_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "verify" e
      | Ok ds' -> ds' = ds)

let prop_cert_roundtrip =
  QCheck.Test.make ~count:300 ~name:"cert codec round-trips"
    (QCheck.make gen_cert ~print:(Fmt.str "%a" Verify.Cert.pp))
    (fun c ->
      let text = Artifact.Codec.to_string Artifact.Cert_codec.encode c in
      match Artifact.Cert_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "cert" e
      | Ok c' ->
        c' = c && Artifact.Codec.to_string Artifact.Cert_codec.encode c' = text)

let prop_record_roundtrip =
  QCheck.Test.make ~count:60 ~name:"full artifact file round-trips"
    (QCheck.make gen_record_verified
       ~print:(Fmt.str "%a" Artifact.Record.pp_summary))
    (fun r ->
      let text = Artifact.Record.encode r in
      match Artifact.Record.decode text with
      | Error e -> fail_error "record" e
      | Ok r' ->
        Artifact.Record.encode r' = text
        && r'.Artifact.Record.method_name = r.Artifact.Record.method_name
        && r'.Artifact.Record.seed = r.Artifact.Record.seed
        && r'.Artifact.Record.steps = r.Artifact.Record.steps
        && r'.Artifact.Record.device_fingerprint
           = r.Artifact.Record.device_fingerprint
        && Sched.Etir.eval_equal r'.Artifact.Record.etir
             r.Artifact.Record.etir
        && r'.Artifact.Record.metrics = r.Artifact.Record.metrics
        && r'.Artifact.Record.verify = r.Artifact.Record.verify
        && r'.Artifact.Record.cert = r.Artifact.Record.cert)

(* Floats that defeat naive printf round-trips still survive (%.17g), and
   non-finite values are handled. *)
let test_float_extremes () =
  List.iter
    (fun f ->
      let m = { (QCheck.Gen.generate1 gen_metrics) with
                Costmodel.Metrics.exec_time_s = f } in
      let text = Artifact.Codec.to_string Artifact.Metrics_codec.encode m in
      match Artifact.Metrics_codec.decode (Artifact.Codec.cursor text) with
      | Error e -> fail_error "metrics extreme" e
      | Ok m' ->
        check_bool
          (Fmt.str "float %h round-trips" f)
          true
          (Float.equal m'.Costmodel.Metrics.exec_time_s f))
    [ Float.min_float; Float.max_float; epsilon_float; 0x1.fffffffffffffp-2;
      infinity; neg_infinity; nan; 1e308; -1e-308 ]

(* ---------- golden bytes ---------- *)

(* Files written by the Format-based encoder this one replaced, with the
   device and compute fingerprints it computed for them: a fused BERT
   kernel with an epilogue and a certificate, a Table IV conv with verify
   diagnostics on Orin, and a record whose names need [%S] escapes. *)
let goldens =
  [ ("golden/bert_fused_cert.gat", "209582e76ccf",
     "b93f273cd257b2e87035233e07d6af81");
    ("golden/conv_verify_diags.gat", "c32d4c0aae42",
     "859c2c242be7e944471d359ad04f4d95");
    ("golden/escapes.gat", "209582e76ccf",
     "e4158abcf9ffc8d623986a3b05a10279") ]

let read path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_golden_bytes () =
  List.iter
    (fun (path, gpu_fp, compute_fp) ->
      let text = read path in
      match Artifact.Record.decode text with
      | Error e -> fail_error path e
      | Ok r ->
        check_string (path ^ " re-encodes byte for byte") text
          (Artifact.Record.encode r);
        check_string (path ^ " device fingerprint") gpu_fp
          (Artifact.Gpu_codec.fingerprint r.Artifact.Record.device);
        check_string (path ^ " compute fingerprint") compute_fp
          (Artifact.Compute_codec.fingerprint r.Artifact.Record.compute))
    goldens;
  let decoded path =
    match Artifact.Record.decode (read path) with
    | Ok r -> r
    | Error e -> fail_error path e
  in
  let bert = decoded "golden/bert_fused_cert.gat" in
  check_bool "bert kernel has an epilogue" true
    (Compute.epilogue bert.Artifact.Record.compute <> None);
  check_bool "bert kernel has a cert" true (bert.Artifact.Record.cert <> None);
  let conv = decoded "golden/conv_verify_diags.gat" in
  check_bool "conv carries diagnostics" true
    (match conv.Artifact.Record.verify with
    | Artifact.Record.Verified (_ :: _) -> true
    | _ -> false);
  check_string "conv is tuned for Orin"
    (Artifact.Gpu_codec.fingerprint Hardware.Presets.orin_nano)
    conv.Artifact.Record.device_fingerprint;
  let esc = decoded "golden/escapes.gat" in
  check_string "escaped compute name" "we\"ird\\name\n\ttab\255"
    (Compute.name esc.Artifact.Record.compute)

(* ---------- literals ---------- *)

(* Literals with escapes take the [Scanf.unescaped] path, in plain fields
   and inside expressions; a bad escape is an error on its file line. *)
let test_literal_escapes () =
  let module C = Artifact.Codec in
  let strs = [ "a\"b"; "c\\d"; "e\nf"; "g\th"; "\255x"; "plain" ] in
  let b = Buffer.create 64 in
  C.key b "k";
  List.iter (C.str b) strs;
  C.eol b;
  C.field b "x" C.sexp (C.L (List.map (fun s -> C.S s) strs));
  let text =
    Buffer.contents b ^ {|d "\255" "\t"|} ^ "\n" ^ {|bad "x\qy"|} ^ "\n"
  in
  check_bool "literals use backslash escapes" true (String.contains text '\\');
  let cur = C.cursor text in
  let ok what = function Ok v -> v | Error e -> fail_error what e in
  let l = ok "k line" (C.line cur "k") in
  List.iter
    (fun s -> check_string "literal round-trips" s (ok "literal" (C.get_str l)))
    strs;
  ok "end of k line" (C.close l);
  let l = ok "x line" (C.line cur "x") in
  check_bool "literals round-trip inside an expression" true
    (ok "expression" (C.get_sexp l) = C.L (List.map (fun s -> C.S s) strs));
  let l = ok "d line" (C.line cur "d") in
  check_string "decimal escape" "\255" (ok "decimal" (C.get_str l));
  check_string "tab escape" "\t" (ok "tab" (C.get_str l));
  match C.field_str cur "bad" with
  | Ok _ -> Alcotest.fail "bad escape accepted"
  | Error e -> check_int "bad escape reports its file line" 4 e.C.line

(* ---------- negative paths: corrupt input yields Error, never raises ---- *)

let sample_record () = QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |]) gen_record

let expect_error what text =
  match Artifact.Record.decode text with
  | Ok _ -> Alcotest.failf "%s: decode accepted corrupt input" what
  | Error e ->
    check_bool
      (Fmt.str "%s reports a positive line (%s)" what
         (Artifact.Codec.error_to_string e))
      true (e.Artifact.Codec.line >= 1)

let test_truncated () =
  let text = Artifact.Record.encode (sample_record ()) in
  expect_error "half file" (String.sub text 0 (String.length text / 2));
  expect_error "header only" (String.sub text 0 18);
  expect_error "empty" "";
  expect_error "one byte" "g"

let test_bad_checksum () =
  let text = Artifact.Record.encode (sample_record ()) in
  (* Flip one payload byte without touching the recorded checksum. *)
  let b = Bytes.of_string text in
  let pos = String.length text - 5 in
  Bytes.set b pos (if Bytes.get b pos = '1' then '2' else '1');
  expect_error "bit flip" (Bytes.to_string b)

let test_wrong_version () =
  let text = Artifact.Record.encode (sample_record ()) in
  let nl = String.index text '\n' in
  let rest = String.sub text nl (String.length text - nl) in
  expect_error "future version" ("gensor-artifact 99" ^ rest);
  expect_error "bad magic" ("not-an-artifact 1" ^ rest);
  match Artifact.Record.decode ("gensor-artifact 99" ^ rest) with
  | Error e ->
    check_bool "version error names the version" true
      (contains ~sub:"version 99" e.Artifact.Codec.msg)
  | Ok _ -> Alcotest.fail "future version accepted"

(* Tampered-but-checksummed payloads: framing passes, field decoding and
   re-validation must still reject. *)
let test_tampered_fields () =
  let r = sample_record () in
  let text = Artifact.Record.encode r in
  let payload_of t =
    (* strip the two header lines *)
    let i = String.index t '\n' in
    let j = String.index_from t (i + 1) '\n' in
    String.sub t (j + 1) (String.length t - j - 1)
  in
  let reframe payload = Artifact.Codec.frame payload in
  let replace_line ~prefix ~with_ payload =
    String.split_on_char '\n' payload
    |> List.map (fun l ->
           if String.length l >= String.length prefix
              && String.sub l 0 (String.length prefix) = prefix
           then with_
           else l)
    |> String.concat "\n"
  in
  let payload = payload_of text in
  expect_error "negative axis extent"
    (reframe (replace_line ~prefix:"axis" ~with_:"axis s \"i\" -5" payload));
  expect_error "forged device fingerprint"
    (reframe
       (replace_line ~prefix:"device_fp" ~with_:"device_fp 000000000000"
          payload));
  expect_error "unknown field"
    (reframe (replace_line ~prefix:"steps" ~with_:"stepz 3" payload));
  expect_error "trailing garbage"
    (reframe (payload ^ "\nextra junk 1\n"));
  match
    Artifact.Record.decode
      (reframe
         (replace_line ~prefix:"method" ~with_:{|method "bad\q"|} payload))
  with
  | Ok _ -> Alcotest.fail "bad escape accepted"
  | Error e ->
    check_int "bad escape is reported on the method line" 3
      e.Artifact.Codec.line

(* ---------- store ---------- *)

let tmp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "gensor-test-store-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  dir

let test_store_roundtrip () =
  let dir = tmp_dir () in
  let store = Artifact.Store.open_ dir in
  check_int "fresh store is empty" 0 (Artifact.Store.size store);
  let rand = Random.State.make [| 11 |] in
  let r1 = QCheck.Gen.generate1 ~rand gen_record in
  let r2 = QCheck.Gen.generate1 ~rand gen_record in
  let k1 = Artifact.Store.put store r1 in
  let _k2 = Artifact.Store.put store r2 in
  (* A second open simulates a second process. *)
  let store2 = Artifact.Store.open_ dir in
  check_bool "no corrupt entries" true (Artifact.Store.issues store2 = []);
  (match
     Artifact.Store.find store2
       ~device_fingerprint:r1.Artifact.Record.device_fingerprint
       ~method_name:r1.Artifact.Record.method_name
       ~compute_fingerprint:(Artifact.Record.compute_fingerprint r1)
   with
  | None -> Alcotest.fail "persisted entry not found by a fresh open"
  | Some r1' ->
    check_bool "reloaded schedule evaluates identically" true
      (Sched.Etir.eval_equal r1'.Artifact.Record.etir r1.Artifact.Record.etir);
    check_bool "reloaded metrics identical" true
      (r1'.Artifact.Record.metrics = r1.Artifact.Record.metrics));
  (* Export reproduces the exact file bytes. *)
  let dest = Filename.concat dir "exported.txt" in
  (match Artifact.Store.export store2 ~key:k1 ~dest with
  | Error m -> Alcotest.failf "export failed: %s" m
  | Ok () -> ());
  (match Artifact.Record.decode (In_channel.with_open_bin dest In_channel.input_all) with
  | Error e -> fail_error "exported file" e
  | Ok _ -> ());
  Sys.remove dest;
  let before = Artifact.Store.size store2 in
  check_int "purge removes everything" before (Artifact.Store.purge store2);
  check_int "purged store is empty" 0
    (Artifact.Store.size (Artifact.Store.open_ dir));
  Sys.rmdir dir

let test_store_skips_corrupt () =
  let dir = tmp_dir () in
  let store = Artifact.Store.open_ dir in
  let rand = Random.State.make [| 13 |] in
  let r1 = QCheck.Gen.generate1 ~rand gen_record in
  let k1 = Artifact.Store.put store r1 in
  (* Drop a truncated file and a garbage file beside the good one. *)
  let truncated = Filename.concat dir "deadbeef.gat" in
  let good_text =
    In_channel.with_open_bin
      (Filename.concat dir (k1 ^ ".gat"))
      In_channel.input_all
  in
  Out_channel.with_open_bin truncated (fun oc ->
      Out_channel.output_string oc
        (String.sub good_text 0 (String.length good_text / 3)));
  Out_channel.with_open_bin (Filename.concat dir "junk.gat") (fun oc ->
      Out_channel.output_string oc "not an artifact at all");
  let store2 = Artifact.Store.open_ dir in
  check_int "good entry still loads" 1 (Artifact.Store.size store2);
  check_int "both corrupt files reported" 2
    (List.length (Artifact.Store.issues store2));
  List.iter
    (fun (i : Artifact.Store.issue) ->
      check_bool "issue names the file" true
        (Filename.check_suffix i.path ".gat"))
    (Artifact.Store.issues store2);
  ignore (Artifact.Store.purge store2 : int);
  Sys.remove truncated;
  Sys.remove (Filename.concat dir "junk.gat");
  Sys.rmdir dir

let test_store_keeps_better_duplicate () =
  let dir = tmp_dir () in
  let store = Artifact.Store.open_ dir in
  let rand = Random.State.make [| 17 |] in
  let r = QCheck.Gen.generate1 ~rand gen_record in
  let better =
    { r with
      Artifact.Record.metrics =
        { r.Artifact.Record.metrics with
          Costmodel.Metrics.achieved_flops =
            r.Artifact.Record.metrics.Costmodel.Metrics.achieved_flops +. 1.0 } }
  in
  let k = Artifact.Store.put store better in
  check_string "same identity, same key" k (Artifact.Store.put store r);
  check_int "one entry" 1 (Artifact.Store.size store);
  (match
     Artifact.Store.find store
       ~device_fingerprint:r.Artifact.Record.device_fingerprint
       ~method_name:r.Artifact.Record.method_name
       ~compute_fingerprint:(Artifact.Record.compute_fingerprint r)
   with
  | Some kept ->
    check_bool "better score wins" true
      (kept.Artifact.Record.metrics
       = better.Artifact.Record.metrics)
  | None -> Alcotest.fail "entry vanished");
  ignore (Artifact.Store.purge store : int);
  Sys.rmdir dir

(* ---------- per-scan device interning ---------- *)

let file_of store k = Filename.concat (Artifact.Store.dir store) (k ^ ".gat")

let rewrite path f =
  let text = read path in
  let i = String.index text '\n' in
  let j = String.index_from text (i + 1) '\n' in
  let payload = String.sub text (j + 1) (String.length text - j - 1) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Artifact.Codec.frame (f payload)))

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let counter name = Option.value ~default:0 (Trace.Counter.find name)

(* [n] records of one device in a fresh store, with their keys in file
   (scan) order. *)
let one_device_store ~seed n =
  let dir = tmp_dir () in
  let store = Artifact.Store.open_ dir in
  let rand = Random.State.make [| seed |] in
  let rec fill () =
    if Artifact.Store.size store < n then begin
      let r = QCheck.Gen.generate1 ~rand gen_record in
      ignore (Artifact.Store.put store r : string);
      fill ()
    end
  in
  fill ();
  (dir, store, List.map fst (Artifact.Store.entries store))

let cleanup dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* An edited device section is decoded on its own and refused; a forged
   [device_fp] in front of an interned section is refused too; an error
   after a skipped section names its file line; the neighbours on the
   real device still load. *)
let test_interning_checks_each_record () =
  let dir, store, keys = one_device_store ~seed:19 5 in
  let file i = file_of store (List.nth keys i) in
  let edited = file 1 and forged = file 2 and late = file 3 in
  rewrite edited (replace ~sub:"\nsm_count 128\n" ~by:"\nsm_count 129\n");
  rewrite forged (fun p ->
      let fp = Artifact.Gpu_codec.fingerprint hw in
      replace ~sub:("device_fp " ^ fp) ~by:"device_fp 0123456789ab" p);
  rewrite late (replace ~sub:"\ncompute " ~by:"\ncompote ");
  let compute_line =
    let text = read late in
    let rec go i line =
      if String.sub text i 8 = "compote " then line
      else go (i + 1) (if text.[i] = '\n' then line + 1 else line)
    in
    go 0 1
  in
  let store2 = Artifact.Store.open_ dir in
  check_int "the two neighbours load" 2 (Artifact.Store.size store2);
  let issue path =
    match
      List.find_opt
        (fun (i : Artifact.Store.issue) -> i.path = path)
        (Artifact.Store.issues store2)
    with
    | Some i -> i.error
    | None -> Alcotest.failf "%s is not reported" path
  in
  List.iter
    (fun path ->
      check_bool (path ^ " names the device") true
        (contains ~sub:"device fingerprint mismatch"
           (issue path).Artifact.Codec.msg))
    [ edited; forged ];
  check_int "error after a skipped device section" compute_line
    (issue late).Artifact.Codec.line;
  check_int "three issues" 3 (List.length (Artifact.Store.issues store2));
  cleanup dir

let test_interning_two_devices () =
  let dir = tmp_dir () in
  let store = Artifact.Store.open_ dir in
  let rand = Random.State.make [| 23 |] in
  let orin = Hardware.Presets.orin_nano in
  let on device =
    let etir = gen_etir rand in
    Artifact.Record.v ~method_name:"m" ~device ~etir
      ~metrics:(Costmodel.Model.evaluate ~hw:device etir) ()
  in
  List.iter
    (fun d -> ignore (Artifact.Store.put store (on d) : string))
    [ hw; orin; hw; orin ];
  let before = counter "store.devices_decoded" in
  let store2 = Artifact.Store.open_ dir in
  check_int "two device sections decoded" 2
    (counter "store.devices_decoded" - before);
  check_int "no issues" 0 (List.length (Artifact.Store.issues store2));
  check_int "every record loads" (Artifact.Store.size store)
    (Artifact.Store.size store2);
  List.iter
    (fun (_, (r : Artifact.Record.t)) ->
      check_string "fingerprint matches the decoded device"
        (Artifact.Gpu_codec.fingerprint r.device) r.device_fingerprint;
      check_bool "device is one of the two presets" true
        (List.mem r.device_fingerprint
           (List.map Artifact.Gpu_codec.fingerprint [ hw; orin ])))
    (Artifact.Store.entries store2);
  List.iter
    (fun d ->
      check_bool
        (Hardware.Gpu_spec.name d ^ " records load")
        true
        (List.exists
           (fun (_, (r : Artifact.Record.t)) ->
             r.device_fingerprint = Artifact.Gpu_codec.fingerprint d)
           (Artifact.Store.entries store2)))
    [ hw; orin ];
  cleanup dir

let test_reopen_is_stable () =
  let dir, _, _ = one_device_store ~seed:29 5 in
  let encoded s =
    List.map
      (fun (k, r) -> (k, Artifact.Record.encode r))
      (Artifact.Store.entries s)
  in
  let a = Artifact.Store.open_ dir and b = Artifact.Store.open_ dir in
  check_bool "two opens give equal entries" true (encoded a = encoded b);
  cleanup dir

let test_scan_counters () =
  let n = 6 in
  let dir, store, keys = one_device_store ~seed:31 n in
  let bytes =
    List.fold_left
      (fun acc k -> acc + String.length (read (file_of store k)))
      0 keys
  in
  let d0 = counter "store.devices_decoded"
  and b0 = counter "store.bytes_scanned"
  and e0 = counter "store.entries_scanned" in
  ignore (Artifact.Store.open_ dir : Artifact.Store.t);
  check_int "one device section decoded for N records" 1
    (counter "store.devices_decoded" - d0);
  check_int "every record scanned" n (counter "store.entries_scanned" - e0);
  check_int "bytes scanned = file sizes" bytes
    (counter "store.bytes_scanned" - b0);
  cleanup dir

(* Four domains write at once: each puts its own records and one shared
   record, all through one handle or alternating between two handles on
   the same directory (the second stands in for a second process).  A
   fresh open must then show every record with its exact bytes, no
   issues, and no leftover temp file. *)
let concurrent_writers ~handles =
  let dir = tmp_dir () in
  let stores = List.init handles (fun _ -> Artifact.Store.open_ dir) in
  let rand = Random.State.make [| 37 + handles |] in
  let distinct = Hashtbl.create 16 in
  let rec fresh () =
    let r = QCheck.Gen.generate1 ~rand gen_record in
    let k = Artifact.Store.key_of_record r in
    if Hashtbl.mem distinct k then fresh ()
    else begin
      Hashtbl.add distinct k ();
      r
    end
  in
  let shared = fresh () in
  let domains = 4 and per_domain = 3 in
  let own = List.init domains (fun _ -> List.init per_domain (fun _ -> fresh ())) in
  let pool = Parallel.Pool.create ~jobs:domains in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () ->
      ignore
        (Parallel.Pool.map pool
           (fun (i, records) ->
             List.iteri
               (fun j r ->
                 let store = List.nth stores ((i + j) mod handles) in
                 ignore (Artifact.Store.put store r : string);
                 ignore (Artifact.Store.put store shared : string))
               records)
           (List.mapi (fun i rs -> (i, rs)) own)
          : unit list));
  let all = shared :: List.concat own in
  let reopened = Artifact.Store.open_ dir in
  check_bool "no issues" true (Artifact.Store.issues reopened = []);
  check_int "every record present" (List.length all)
    (Artifact.Store.size reopened);
  List.iter
    (fun r ->
      let k = Artifact.Store.key_of_record r in
      check_string "file bytes" (Artifact.Record.encode r)
        (read (Filename.concat dir (k ^ ".gat")));
      match List.assoc_opt k (Artifact.Store.entries reopened) with
      | Some r' ->
        check_string "reloaded bytes" (Artifact.Record.encode r)
          (Artifact.Record.encode r')
      | None -> Alcotest.failf "record %s lost" k)
    all;
  Array.iter
    (fun f ->
      if not (Filename.check_suffix f ".gat") then
        Alcotest.failf "stray file %s left in the store" f)
    (Sys.readdir dir);
  cleanup dir

let test_concurrent_writers () =
  concurrent_writers ~handles:1;
  concurrent_writers ~handles:2

let () =
  Alcotest.run "artifact"
    [ ( "roundtrip",
        [ QCheck_alcotest.to_alcotest prop_compute_roundtrip;
          QCheck_alcotest.to_alcotest prop_etir_roundtrip;
          QCheck_alcotest.to_alcotest prop_metrics_roundtrip;
          QCheck_alcotest.to_alcotest prop_gpu_roundtrip;
          QCheck_alcotest.to_alcotest prop_verify_roundtrip;
          QCheck_alcotest.to_alcotest prop_cert_roundtrip;
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
          Alcotest.test_case "extreme floats" `Quick test_float_extremes ] );
      ( "corruption",
        [ Alcotest.test_case "truncated files" `Quick test_truncated;
          Alcotest.test_case "bad checksum" `Quick test_bad_checksum;
          Alcotest.test_case "wrong version / magic" `Quick test_wrong_version;
          Alcotest.test_case "tampered fields" `Quick test_tampered_fields ] );
      ( "store",
        [ Alcotest.test_case "persist and reload" `Quick test_store_roundtrip;
          Alcotest.test_case "skips corrupt entries" `Quick
            test_store_skips_corrupt;
          Alcotest.test_case "duplicate keeps better score" `Quick
            test_store_keeps_better_duplicate;
          Alcotest.test_case "scan counters" `Quick test_scan_counters;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers ] );
      ( "interning",
        [ Alcotest.test_case "each record's device is checked" `Quick
            test_interning_checks_each_record;
          Alcotest.test_case "two devices in one store" `Quick
            test_interning_two_devices;
          Alcotest.test_case "reopen gives equal entries" `Quick
            test_reopen_is_stable ] );
      ( "golden",
        [ Alcotest.test_case "parent bytes and fingerprints" `Quick
            test_golden_bytes ] );
      ( "literals",
        [ Alcotest.test_case "escapes and bad escapes" `Quick
            test_literal_escapes ] ) ]
