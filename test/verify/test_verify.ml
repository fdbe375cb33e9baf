open Sched

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let gemm_etir ?(m = 256) ?(n = 256) ?(k = 256) () =
  Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()))

(* The hand-checkable legal GEMM configuration of the costmodel tests:
   block 32x16, thread 4x4, reduce chunk 8 unrolled by 2 — every tile
   divides its covering domain. *)
let configured () =
  let e = gemm_etir () in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 16 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 8 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 2 in
  Etir.with_cur_level e 0

let errors diags = Verify.Diagnostic.errors diags
let error_texts diags =
  List.map
    (fun d -> Fmt.str "%a" Verify.Diagnostic.pp d)
    (errors diags)

(* ---------- positive ---------- *)

let test_clean_on_legal_schedule () =
  let diags = Verify.run (configured ()) ~hw in
  Alcotest.(check int) "no diagnostics at all" 0 (List.length diags)

let test_clean_on_pipeline_outputs () =
  (* Every method's shipped schedule for a Table-IV workload verifies. *)
  let entry = Option.get (Workloads.Table_iv.find "M1") in
  let op = entry.Workloads.Table_iv.op () in
  List.iter
    (fun method_ ->
      let output = method_.Pipeline.Methods.compile ~hw op in
      let errs = errors (Verify.run output.Pipeline.Methods.etir ~hw) in
      if errs <> [] then
        Alcotest.failf "%s produced errors: %a" method_.Pipeline.Methods.name
          Verify.Diagnostic.pp_report errs)
    [ Pipeline.Methods.roller (); Pipeline.Methods.ansor ~n_trials:200 () ]

let test_debug_assertion_passes () =
  (* The pipeline debug gate accepts legal compilations end to end. *)
  let entry = Option.get (Workloads.Table_iv.find "V1") in
  let op = entry.Workloads.Table_iv.op () in
  Pipeline.Methods.debug_verify := true;
  Fun.protect
    ~finally:(fun () -> Pipeline.Methods.debug_verify := false)
    (fun () ->
      let method_ = Pipeline.Methods.roller () in
      ignore (method_.Pipeline.Methods.compile ~hw op))

(* ---------- soundness property (issue: verifier on known-legal states) ----------

   For seeded random action sequences: a state that passes the structural
   invariants and the memory check, and whose tiles all divide their
   covering domains, must verify with no Error-severity diagnostics. *)

let dividing e =
  let ok = ref true in
  let sext = Etir.spatial_extents e and rext = Etir.reduce_extents e in
  for i = 0 to Etir.num_spatial e - 1 do
    let t1 = Etir.stile_eff e ~level:1 ~dim:i in
    let t0 = Etir.stile e ~level:0 ~dim:i in
    let v = Etir.vthread e ~dim:i in
    if sext.(i) mod t1 <> 0 || t1 mod t0 <> 0 || t0 mod v <> 0 then ok := false
  done;
  for j = 0 to Etir.num_reduce e - 1 do
    let r1 = Etir.rtile_eff e ~level:1 ~dim:j in
    let r0 = Etir.rtile_eff e ~level:0 ~dim:j in
    if rext.(j) mod r1 <> 0 || r1 mod r0 <> 0 then ok := false
  done;
  !ok

let prop_sound_on_legal_states =
  QCheck.Test.make ~count:200
    ~name:"validate && mem-ok && dividing => no Error diagnostics"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 25 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      let legal =
        Result.is_ok (Etir.validate !e)
        && Costmodel.Mem_check.ok !e ~hw
        && dividing !e
      in
      (not legal) || errors (Verify.run !e ~hw) = [])

(* ---------- negative fixture 1: out-of-bounds tile ---------- *)

let test_oob_tile_fixture () =
  (* A 384-wide block tile on a 256-wide axis: the bounds pass must error
     and name both the broken axis and the escaping accesses. *)
  let bad = Etir.with_stile (configured ()) ~level:1 ~dim:0 384 in
  let diags = Verify.run bad ~hw in
  let errs = errors diags in
  check_bool "at least one error" true (errs <> []);
  check_bool "every error is from the bounds pass" true
    (List.for_all (fun d -> d.Verify.Diagnostic.pass = Verify.Diagnostic.Bounds) errs);
  let texts = error_texts diags in
  check_bool "pinpoints the broken axis" true
    (List.exists
       (fun t -> contains t "axis i" && contains t "exceeds the axis extent")
       texts);
  check_bool "reports the out-of-bounds read with its region" true
    (List.exists
       (fun t ->
         contains t "read of A" && contains t "escape the declared extent")
       texts);
  check_bool "reports the out-of-bounds output write" true
    (List.exists (fun t -> contains t "write of C") texts)

(* ---------- negative fixture 2: missing __syncthreads ---------- *)

module K = Codegen.Kernel

(* Tree edits: [map_stmts f] rebuilds the body bottom-up, replacing each
   statement [s] by [f s]; [edit_barrier n by] replaces the [n]-th
   barrier in program order. *)
let rec map_stmts f stmts =
  List.concat_map
    (fun s ->
      f (match s with K.Loop (l, body) -> K.Loop (l, map_stmts f body) | s -> s))
    stmts

let edit_barrier n by (k : K.t) =
  let seen = ref 0 in
  { k with
    body =
      map_stmts
        (function
          | K.Barrier ->
            incr seen;
            if !seen = n then by else [ K.Barrier ]
          | s -> [ s ])
        k.body }

(* The first barrier inside a loop whose trip count depends on threadIdx. *)
let divergent_barrier =
  edit_barrier 1
    [ K.Loop
        ( { role = K.Staging; var = "s"; bound = 17; thread_dependent = true },
          [ K.Barrier ] ) ]

let test_missing_sync_fixture () =
  (* Dropping the barrier between cooperative staging and the reads must
     surface as a race-pass error at the read line. *)
  let e = configured () in
  let kernel = edit_barrier 1 [] (Codegen.Cuda.lower e) in
  let diags = Verify.run ~kernel e ~hw in
  let errs = errors diags in
  check_bool "at least one error" true (errs <> []);
  check_bool "every error is from the race pass" true
    (List.for_all (fun d -> d.Verify.Diagnostic.pass = Verify.Diagnostic.Race) errs);
  let texts = error_texts diags in
  check_bool "identifies the read-after-write race on the staged slices" true
    (List.exists
       (fun t ->
         contains t "read-after-write" && contains t "smem_A"
         && contains t "kernel line")
       texts)

(* ---------- further mutations ---------- *)

let test_divergent_barrier () =
  let e = configured () in
  let diags = Verify.run ~kernel:(divergent_barrier (Codegen.Cuda.lower e)) e ~hw in
  check_bool "barrier divergence is an error" true
    (List.exists
       (fun t -> contains t "barrier divergence")
       (error_texts diags))

let test_lint_catches_shrunk_smem () =
  (* The staged A slice is 32x8 = 256 floats; shrinking the declaration
     behind the footprint model's back must fail the lint pass. *)
  let e = configured () in
  let k = Codegen.Cuda.lower e in
  let kernel =
    { k with shared = List.map (fun (t, n) -> (t, if t = "A" then 128 else n)) k.shared }
  in
  let diags = Verify.run ~kernel e ~hw in
  check_bool "smem extent mismatch is a lint error" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.pass = Verify.Diagnostic.Lint
         && contains d.Verify.Diagnostic.message "128")
       (errors diags))

let with_launch f (k : K.t) = { k with host = { k.host with launch = f k.host.launch } }

let test_lint_catches_wrong_launch () =
  let e = configured () in
  let kernel =
    with_launch (fun l -> { l with block = (4, 4, 1) }) (Codegen.Cuda.lower e)
  in
  let diags = Verify.run ~kernel e ~hw in
  check_bool "launch-shape mismatch is a lint error" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.pass = Verify.Diagnostic.Lint
         && contains d.Verify.Diagnostic.message "block")
       (errors diags))

let test_nondividing_warns_not_errors () =
  (* 48 does not divide 256: a guard obligation, not an error. *)
  let e = Etir.with_stile (configured ()) ~level:1 ~dim:0 48 in
  let diags = Verify.run e ~hw in
  check_bool "no errors" true (errors diags = []);
  check_bool "warns about the non-dividing block tile" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.severity = Verify.Diagnostic.Warning
         && contains d.Verify.Diagnostic.message "does not divide")
       diags)

(* ---------- stable diagnostic codes (satellite: coded fixtures) ---------- *)

let test_divergent_barrier_code () =
  (* The barrier-divergence fixture must carry its stable code GSR-R01. *)
  let e = configured () in
  let diags = Verify.run ~kernel:(divergent_barrier (Codegen.Cuda.lower e)) e ~hw in
  check_bool "divergence error carries GSR-R01" true
    (List.exists (fun d -> d.Verify.Diagnostic.code = "GSR-R01") (errors diags))

let test_nondividing_code () =
  (* The non-dividing block tile warning must carry GSR-B04, and the plain
     text rendering must stay free of codes (byte-stable report format). *)
  let e = Etir.with_stile (configured ()) ~level:1 ~dim:0 48 in
  let diags = Verify.run e ~hw in
  check_bool "non-dividing tile warns with GSR-B04" true
    (List.exists
       (fun d ->
         d.Verify.Diagnostic.code = "GSR-B04"
         && d.Verify.Diagnostic.severity = Verify.Diagnostic.Warning)
       diags);
  check_bool "every diagnostic carries a GSR- code" true
    (List.for_all
       (fun d ->
         String.length d.Verify.Diagnostic.code >= 6
         && String.sub d.Verify.Diagnostic.code 0 4 = "GSR-")
       diags);
  List.iter
    (fun d ->
      let plain = Fmt.str "%a" Verify.Diagnostic.pp d in
      check_bool "pp omits the code" false (contains plain "GSR-");
      let coded = Fmt.str "%a" Verify.Diagnostic.pp_coded d in
      check_bool "pp_coded leads with the code" true
        (String.length coded > 4 && String.sub coded 0 4 = "GSR-"))
    diags

(* ---------- one mutation per diagnostic code ----------

   Each entry edits the configured GEMM's kernel tree and lists every
   diagnostic the verifier then reports: code, severity, location and
   message (the clean kernel reports none).  It also gives the same edit
   as line edits of the printed kernel and host text, so every "kernel
   line N" is checked against the line the edited node prints on.

   Codes the tree's types make unrepresentable are retired and have no
   entry: GSR-L03, L05, L07, L08, L09, L12 and L15 (see Verify.Lint). *)

let row d =
  Verify.Diagnostic.
    ((d.code, severity_to_string d.severity), (d.loc, d.message))

(* Line-level edits of printed text; lines are numbered from 1. *)
let edit_lines f text =
  let lines = String.split_on_char '\n' text in
  String.concat "\n" (List.concat (List.mapi (fun i l -> f (i + 1) l) lines))

let replace_line n by = edit_lines (fun i l -> if i = n then [ by ] else [ l ])
let delete_line n = edit_lines (fun i l -> if i = n then [] else [ l ])
let insert_after n by = edit_lines (fun i l -> if i = n then [ l; by ] else [ l ])

type code_case = {
  code : string;
  what : string;
  etir : unit -> Etir.t;
  tree : K.t -> K.t;
  kernel_text : string -> string;
  host_text : string -> string;
  expected : (string * string * string * string) list;
}

let case ?(etir = configured) ?(tree = Fun.id) ?(kernel_text = Fun.id)
    ?(host_text = Fun.id) code what expected =
  { code; what; etir; tree; kernel_text; host_text; expected }

let code_case c =
  Alcotest.test_case (c.code ^ " " ^ c.what) `Quick (fun () ->
      let e = c.etir () in
      let kernel = c.tree (Codegen.Cuda.lower e) in
      Alcotest.(check string) "kernel text"
        (c.kernel_text (Codegen.Cuda.emit e))
        (K.print kernel);
      Alcotest.(check string) "host text"
        (c.host_text (Codegen.Cuda.emit_host e))
        (K.print_host kernel);
      Alcotest.(check (list (pair (pair string string) (pair string string))))
        "diagnostics"
        (List.map (fun (c, s, l, m) -> ((c, s), (l, m))) c.expected)
        (List.map row (Verify.run ~kernel e ~hw)))

let staged_race =
  "cross-thread reads of smem_A, smem_B are not separated from the staging \
   writes by __syncthreads() (read-after-write race)"

let divergent_msg =
  "__syncthreads() under divergent control flow: threads may not all reach \
   the barrier (barrier divergence)"

let with_shared f (k : K.t) = { k with shared = f k.shared }

let code_cases =
  [ case "GSR-R01" "barrier in a thread-dependent loop" ~tree:divergent_barrier
      ~kernel_text:
        (replace_line 15
           "    for (int s = threadIdx.x; s < 17; s += blockDim.x) \
            __syncthreads();")
      [ ("GSR-R01", "error", "kernel line 15", divergent_msg);
        ("GSR-R02", "error", "kernel line 25", staged_race) ];
    case "GSR-R02" "staging barrier removed" ~tree:(edit_barrier 1 [])
      ~kernel_text:(delete_line 15)
      [ ("GSR-R02", "error", "kernel line 24", staged_race) ];
    case "GSR-R03" "chunk-closing barrier removed" ~tree:(edit_barrier 2 [])
      ~kernel_text:(delete_line 32)
      [ ( "GSR-R03", "error", "kernel line 25 (end of reduction chunk)",
          "no __syncthreads() after the chunk's reads: the next iteration's \
           staging writes race with them (write-after-read across chunk \
           iterations)" ) ];
    case "GSR-L01" "shared declaration removed"
      ~tree:(with_shared (List.filter (fun (t, _) -> t <> "B")))
      ~kernel_text:(delete_line 5)
      [ ( "GSR-L01", "error", "kernel",
          "missing __shared__ declaration for the staged slice of B" ) ];
    case "GSR-L02" "shared extent shrunk"
      ~tree:(with_shared (List.map (fun (t, n) -> (t, if t = "A" then 128 else n))))
      ~kernel_text:(replace_line 4 "  __shared__ float smem_A[128];  // level-1 tile")
      [ ( "GSR-L02", "error", "kernel line 4",
          "__shared__ smem_A declares 128 floats but the level-1 footprint \
           stages 256" ) ];
    case "GSR-L04" "unbacked shared array"
      ~tree:(with_shared (fun s -> s @ [ ("C", 64) ]))
      ~kernel_text:(insert_after 5 "  __shared__ float smem_C[64];  // level-1 tile")
      [ ( "GSR-L04", "warning", "kernel line 6",
          "shared array not backed by any staged level-1 slice" ) ];
    case "GSR-L06" "accumulator shrunk"
      ~tree:(fun k -> { k with acc = 8 })
      ~kernel_text:(fun k ->
        k
        |> replace_line 8 "  float acc[8];"
        |> replace_line 10 "  for (int i = 0; i < 8; ++i) acc[i] = 0f;")
      [ ( "GSR-L06", "error", "kernel line 8",
          "accumulator holds 8 floats but the level-0 tile has 16 elements" ) ];
    case "GSR-L10" "kernel renamed"
      ~tree:(fun k -> { k with symbol = "gemm_k" })
      ~kernel_text:
        (replace_line 3
           "extern \"C\" __global__ void gemm_k(const float* __restrict__ A, \
            const float* __restrict__ B, float* __restrict__ C) {")
      [ ("GSR-L10", "error", "kernel", "kernel symbol gemm_kernel not found") ];
    case "GSR-L11" "host launches another kernel"
      ~tree:(fun k -> { k with host = { k.host with callee = "gemm_k" } })
      ~host_text:(replace_line 3 "gemm_k<<<grid, block, 1536>>>(A, B, C);")
      [ ("GSR-L11", "error", "host", "host snippet does not launch gemm_kernel") ];
    case "GSR-L13" "block shape shrunk"
      ~tree:(with_launch (fun l -> { l with block = (4, 4, 1) }))
      ~kernel_text:(replace_line 2 "// launch: <<<dim3(16,8,1), dim3(4,4,1), 1536>>>")
      ~host_text:(replace_line 2 "dim3 block(4, 4, 1);")
      [ ("GSR-L13", "error", "host", "block launches 16 but the schedule prescribes 32") ];
    case "GSR-L14" "dynamic shared memory shrunk"
      ~tree:(with_launch (fun l -> { l with smem_bytes = 1024 }))
      ~kernel_text:(replace_line 2 "// launch: <<<dim3(16,8,1), dim3(4,8,1), 1024>>>")
      ~host_text:(replace_line 3 "gemm_kernel<<<grid, block, 1024>>>(A, B, C);")
      [ ( "GSR-L14", "error", "host",
          "launch allocates 1024 bytes of dynamic shared memory but the \
           staged footprint is 1536" ) ];
    case "GSR-L16" "reduce-free kernel with staged slices" ~etir:Fixtures.elementwise
      [ ( "GSR-L16", "info", "kernel",
          "shared arrays declared but never filled (no reduction staging \
           phase)" ) ] ]

(* ---------- certificates ---------- *)

let test_cert_on_configured () =
  let outcome = Verify.Cert.certify ~hw (configured ()) in
  match outcome.Verify.Cert.cert with
  | None ->
    Alcotest.failf "certification refused: %a" Verify.Diagnostic.pp_report
      outcome.Verify.Cert.diags
  | Some cert ->
    let at i j k = [ ("i", i); ("j", j); ("k", k) ] in
    check_bool "witness admits itself" true
      (Result.is_ok (Verify.Cert.admits cert (at 256 256 256)));
    check_bool "smaller in-region shape admitted" true
      (Result.is_ok (Verify.Cert.admits cert (at 64 64 64)));
    check_bool "below the clamp-free floor is rejected" true
      (Result.is_error (Verify.Cert.admits cert (at 16 256 256)));
    check_bool "above the declared range is rejected" true
      (Result.is_error (Verify.Cert.admits cert (at 1024 256 256)));
    check_bool "guards hold on tile multiples" true
      (Result.is_ok (Verify.Cert.guards_hold cert (at 64 64 64)));
    check_bool "guards fail off-multiple" true
      (Result.is_error (Verify.Cert.guards_hold cert (at 65 64 64)))

let test_cert_refuses_broken_witness () =
  (* A witness the concrete verifier rejects must not certify; the refusal
     carries GSR-C02 plus the underlying errors. *)
  let bad = Etir.with_stile (configured ()) ~level:1 ~dim:0 384 in
  let outcome = Verify.Cert.certify ~hw bad in
  check_bool "no certificate" true (outcome.Verify.Cert.cert = None);
  check_bool "refusal carries GSR-C02" true
    (List.exists
       (fun d -> d.Verify.Diagnostic.code = "GSR-C02")
       outcome.Verify.Cert.diags)

let test_cert_rejects_structure_change () =
  let outcome = Verify.Cert.certify ~hw (configured ()) in
  let cert = Option.get outcome.Verify.Cert.cert in
  let gemv = Ops.Op.compute (Ops.Matmul.gemv ~m:256 ~n:256 ()) in
  check_bool "different axis structure is rejected" true
    (Result.is_error (Verify.Cert.admits_compute cert gemv))

(* The acceptance property: for random schedules and random shapes *inside*
   a certificate's region, the concrete verifier on the retargeted schedule
   reports no errors. *)
let prop_cert_sound =
  QCheck.Test.make ~count:60
    ~name:"shapes admitted by a certificate verify error-free"
    QCheck.(
      quad
        (make Gen.(int_range 0 100_000))
        (1 -- 512) (1 -- 512) (1 -- 512))
    (fun (seed, m, n, k) ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ()) in
      for _ = 1 to 25 do
        match Action.successors !e with
        | [] -> ()
        | succs -> e := snd (Rng.choice rng succs)
      done;
      if
        not
          (Result.is_ok (Etir.validate !e) && Costmodel.Mem_check.ok !e ~hw)
      then true
      else
        let outcome = Verify.Cert.certify ~hw !e in
        match outcome.Verify.Cert.cert with
        | None -> true (* refusal is always allowed *)
        | Some cert -> (
          let compute' = Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()) in
          match Verify.Cert.admits_compute cert compute' with
          | Error _ -> true
          | Ok () ->
            errors (Verify.run (Etir.retarget !e compute') ~hw) = []))

(* ---------- export: JSON and SARIF ---------- *)

let parse_json s =
  match Json.parse s with Ok v -> v | Error m -> Alcotest.fail m

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )
let member key v = Option.get (Json.member key v)
let array key v =
  match member key v with Json.Array a -> a | _ -> Alcotest.failf "%s: not an array" key
let get_string key v =
  match member key v with Json.String s -> s | _ -> Alcotest.failf "%s: not a string" key

(* Diagnostics with every JSON-hostile character the messages can carry. *)
let nasty_diags () =
  [ Verify.Diagnostic.v ~code:"GSR-B01" Verify.Diagnostic.Error
      Verify.Diagnostic.Bounds ~loc:"axis \"i\"" "tile > extent \\ %s" "q\"uo\"te";
    Verify.Diagnostic.v ~code:"GSR-R02" Verify.Diagnostic.Warning
      Verify.Diagnostic.Race ~loc:"kernel line 3" "line1\nline2\ttabbed";
    Verify.Diagnostic.v ~code:"GSR-C04" Verify.Diagnostic.Info
      Verify.Diagnostic.Cert ~loc:"region" "control \001 char" ]

let test_json_export_valid () =
  let items =
    [ Verify.Export.item ~target:"dev/op \"x\"" (nasty_diags ());
      Verify.Export.item ~region:"32 <= i <= 256" ~target:"dev/op2" [] ]
  in
  let doc = parse_json (Verify.Export.json items) in
  Alcotest.check json "tool name" (Json.String "gensor-verify") (member "tool" doc);
  Alcotest.check json "error tally" (Json.Number 1.)
    (member "errors" (member "summary" doc));
  match array "items" doc with
  | [ first; _ ] ->
    (* round-trips the hostile message bytes *)
    check_bool "escaped message round-trips" true
      (List.mem (Json.String "tile > extent \\ q\"uo\"te")
         (List.map (member "message") (array "diagnostics" first)))
  | items -> Alcotest.failf "%d items, expected two" (List.length items)

let test_sarif_export_valid () =
  let items =
    [ Verify.Export.item ~target:"rtx4090/M1/gensor" (nasty_diags ()) ]
  in
  let doc = parse_json (Verify.Export.sarif items) in
  Alcotest.check json "sarif version" (Json.String "2.1.0") (member "version" doc);
  check_bool "schema uri present" true
    (contains (get_string "$schema" doc) "sarif-2.1.0");
  match array "runs" doc with
  | [ run ] ->
    let driver = member "driver" (member "tool" run) in
    Alcotest.check json "driver name" (Json.String "gensor-verify")
      (member "name" driver);
    let rule_ids = List.map (get_string "id") (array "rules" driver) in
    let results = array "results" run in
    Alcotest.(check int) "one result per diagnostic" 3 (List.length results);
    List.iter
      (fun r ->
        check_bool "ruleId is a listed rule" true
          (List.mem (get_string "ruleId" r) rule_ids);
        check_bool "level is a SARIF level" true
          (List.mem (get_string "level" r) [ "error"; "warning"; "note" ]);
        check_bool "message text present" true
          (Json.member "text" (member "message" r) <> None))
      results
  | runs -> Alcotest.failf "%d runs, expected one" (List.length runs)

let () =
  Alcotest.run "verify"
    [ ("positive",
       [ Alcotest.test_case "legal schedule is clean" `Quick
           test_clean_on_legal_schedule;
         Alcotest.test_case "pipeline outputs verify" `Quick
           test_clean_on_pipeline_outputs;
         Alcotest.test_case "debug assertion passes" `Quick
           test_debug_assertion_passes;
         QCheck_alcotest.to_alcotest prop_sound_on_legal_states ]);
      ("negative",
       [ Alcotest.test_case "oob tile fixture" `Quick test_oob_tile_fixture;
         Alcotest.test_case "missing sync fixture" `Quick
           test_missing_sync_fixture;
         Alcotest.test_case "divergent barrier" `Quick test_divergent_barrier;
         Alcotest.test_case "lint: shrunk smem" `Quick
           test_lint_catches_shrunk_smem;
         Alcotest.test_case "lint: wrong launch" `Quick
           test_lint_catches_wrong_launch;
         Alcotest.test_case "non-dividing tiles warn" `Quick
           test_nondividing_warns_not_errors ]);
      ("codes",
       [ Alcotest.test_case "divergent barrier is GSR-R01" `Quick
           test_divergent_barrier_code;
         Alcotest.test_case "non-dividing tile is GSR-B04" `Quick
           test_nondividing_code ]
       @ List.map code_case code_cases);
      ("cert",
       [ Alcotest.test_case "configured GEMM certifies" `Quick
           test_cert_on_configured;
         Alcotest.test_case "broken witness is refused" `Quick
           test_cert_refuses_broken_witness;
         Alcotest.test_case "structure change is rejected" `Quick
           test_cert_rejects_structure_change;
         QCheck_alcotest.to_alcotest prop_cert_sound ]);
      ("export",
       [ Alcotest.test_case "json is valid and escaped" `Quick
           test_json_export_valid;
         Alcotest.test_case "sarif 2.1.0 is well-formed" `Quick
           test_sarif_export_valid ]) ]
