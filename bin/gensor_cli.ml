(* Command-line front end.

   gensor compile --op M1 --method gensor --device rtx4090 [--cuda]
   gensor ops
   gensor model --name resnet50 --device orin [--batch 8]
   gensor devices *)

open Cmdliner

let device_arg =
  let doc = "Target device preset (rtx4090 or orin)." in
  Arg.(value & opt string "rtx4090" & info [ "device"; "d" ] ~docv:"DEVICE" ~doc)

let resolve_device name =
  match Hardware.Presets.by_name name with
  | Some hw -> Ok hw
  | None -> Error (`Msg (Fmt.str "unknown device %s (rtx4090|orin)" name))

let method_arg =
  let doc = "Compilation method: gensor, roller, ansor or cublas." in
  Arg.(value & opt string "gensor" & info [ "method"; "m" ] ~docv:"METHOD" ~doc)

let resolve_method name =
  match String.lowercase_ascii name with
  | "gensor" -> Ok (Pipeline.Methods.gensor ())
  | "gensor-novthread" -> Ok (Pipeline.Methods.gensor_without_vthread ())
  | "gensor-tree" -> Ok (Pipeline.Methods.gensor_tree_only ())
  | "roller" -> Ok (Pipeline.Methods.roller ())
  | "ansor" -> Ok (Pipeline.Methods.ansor ())
  | "cublas" -> Ok (Pipeline.Methods.cublas ())
  | other -> Error (`Msg (Fmt.str "unknown method %s" other))

(* Oracle mode: re-analyse every state from scratch instead of deriving its
   cost-model components incrementally along the construction edge.  The
   selected schedules are identical either way (the incremental path is
   bit-for-bit equal, see DESIGN.md section 10); the flag exists for
   cross-checking and for measuring the speedup. *)
let no_incremental_arg =
  let doc =
    "Disable incremental cost-model evaluation: rebuild every state's \
     component analysis from scratch (oracle mode; same effect as setting \
     GENSOR_INCREMENTAL=0)."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let apply_incremental no_incremental =
  if no_incremental then Costmodel.Delta.set_enabled false

(* ---------- tracing ---------- *)

let trace_arg =
  let doc =
    "Record a trace of this invocation to $(docv): Chrome trace_event JSON \
     (open in chrome://tracing or Perfetto) when the name ends in .json, a \
     flat text summary otherwise.  Same effect as setting \
     GENSOR_TRACE=$(docv); pass $(b,off) to silence an inherited \
     GENSOR_TRACE."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let apply_trace = function
  | None -> ()
  | Some spec -> Trace.set_output (Trace.parse_spec spec)

(* Explicit flush so the command can report the path; the library's at_exit
   flush covers every other exit path. *)
let report_trace () =
  match Trace.flush () with
  | Some path -> Fmt.pr "wrote trace %s@." path
  | None -> ()

(* ---------- persistent artifact store ---------- *)

let cache_dir_arg =
  let doc =
    "Persistent kernel store directory (falls back to the GENSOR_CACHE_DIR \
     environment variable; no store when neither is set)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR" ~doc
        ~env:(Cmd.Env.info Artifact.Store.env_var))

(* [--cache-dir DIR] wins; otherwise GENSOR_CACHE_DIR; otherwise no store. *)
let open_store = function
  | Some dir -> Some (Artifact.Store.open_ dir)
  | None -> Artifact.Store.open_env ()

let report_store_issues store =
  List.iter
    (fun i -> Fmt.epr "cache: skipped %a@." Artifact.Store.pp_issue i)
    (Artifact.Store.issues store)

(* ---------- compile ---------- *)

let op_arg =
  let doc = "Workload label from the benchmark suite (see `gensor ops`)." in
  Arg.(value & opt string "M1" & info [ "op"; "o" ] ~docv:"LABEL" ~doc)

let cuda_arg =
  let doc = "Also print the generated CUDA-like kernel." in
  Arg.(value & flag & info [ "cuda" ] ~doc)

let compile_cmd =
  let run device method_name label emit_cuda cache_dir no_incremental trace =
    apply_incremental no_incremental;
    apply_trace trace;
    match
      ( resolve_device device,
        resolve_method method_name,
        Workloads.Table_iv.find label )
    with
    | Error (`Msg m), _, _ | _, Error (`Msg m), _ -> `Error (false, m)
    | _, _, None -> `Error (false, Fmt.str "unknown workload %s" label)
    | Ok hw, Ok method_, Some entry ->
      let op = entry.Workloads.Table_iv.op () in
      Fmt.pr "%s: %s on %s via %s@.@." label
        entry.Workloads.Table_iv.description
        (Hardware.Gpu_spec.name hw) method_.Pipeline.Methods.name;
      let store = open_store cache_dir in
      Option.iter report_store_issues store;
      let probe store =
        Artifact.Store.find store
          ~device_fingerprint:(Artifact.Gpu_codec.fingerprint hw)
          ~method_name:method_.Pipeline.Methods.name
          ~compute_fingerprint:
            (Artifact.Compute_codec.fingerprint (Ops.Op.compute op))
      in
      let output =
        match Option.map probe store with
        | Some (Some r) ->
          Fmt.pr "cache: exact hit (%a)@.@." Artifact.Record.pp_summary r;
          Pipeline.Methods.of_artifact r
        | Some None | None ->
          let output = method_.Pipeline.Methods.compile ~hw op in
          Option.iter
            (fun store ->
              let verify =
                Verify.run output.Pipeline.Methods.etir ~hw
              in
              let r =
                Pipeline.Methods.to_artifact ~verify
                  ~method_name:method_.Pipeline.Methods.name ~hw output
              in
              let key = Artifact.Store.put store r in
              Fmt.pr "cache: miss, stored as %s@.@." key)
            store;
          output
      in
      Fmt.pr "%a@.@.%a@.@." Sched.Etir.pp output.Pipeline.Methods.etir
        Costmodel.Metrics.pp output.Pipeline.Methods.metrics;
      Fmt.pr "optimisation: %.2f s simulated, %.3f s wall@."
        (Pipeline.Methods.simulated_opt_time output)
        output.Pipeline.Methods.wall_s;
      if emit_cuda then
        Fmt.pr "@.%s@.%s@."
          (Codegen.Cuda.emit output.Pipeline.Methods.etir)
          (Codegen.Cuda.emit_host output.Pipeline.Methods.etir);
      report_trace ();
      `Ok ()
  in
  let doc =
    "Compile one benchmark operator and print the schedule.  With a \
     persistent store ($(b,--cache-dir) or GENSOR_CACHE_DIR), a previously \
     tuned schedule is loaded instead of re-optimised, and fresh results \
     are written through."
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      ret
        (const run $ device_arg $ method_arg $ op_arg $ cuda_arg
       $ cache_dir_arg $ no_incremental_arg $ trace_arg))

(* ---------- ops ---------- *)

let ops_cmd =
  let run () =
    Report.Table.print
      (Report.Table.v
         ~headers:[ "label"; "description"; "from paper" ]
         (List.map
            (fun e ->
              [ e.Workloads.Table_iv.label; e.Workloads.Table_iv.description;
                (if e.Workloads.Table_iv.from_paper then "yes" else "") ])
            Workloads.Table_iv.all))
  in
  let doc = "List the benchmark operator suite (paper Table IV)." in
  Cmd.v (Cmd.info "ops" ~doc) Term.(const run $ const ())

(* ---------- model ---------- *)

let model_name_arg =
  let doc = "Model: resnet50, resnet34, vgg16, bert, gpt2 or mobilenet." in
  Arg.(value & opt string "resnet50" & info [ "name"; "n" ] ~docv:"MODEL" ~doc)

let batch_arg =
  let doc = "Batch size." in
  Arg.(value & opt int 8 & info [ "batch"; "b" ] ~docv:"N" ~doc)

let resolve_model name ~batch =
  match String.lowercase_ascii name with
  | "resnet50" -> Ok (Dnn.Resnet.resnet50 ~batch ())
  | "resnet34" -> Ok (Dnn.Resnet.resnet34 ~batch ())
  | "vgg16" -> Ok (Dnn.Resnet.vgg16 ~batch ())
  | "bert" -> Ok (Dnn.Transformer.bert_small ~batch ())
  | "gpt2" -> Ok (Dnn.Transformer.gpt2 ~batch ())
  | "mobilenet" -> Ok (Dnn.Mobilenet.mobilenet_v2 ~batch ())
  | other -> Error (`Msg (Fmt.str "unknown model %s" other))

let model_cmd =
  let run device method_name model_name batch cache_dir no_incremental trace =
    apply_incremental no_incremental;
    apply_trace trace;
    match
      (resolve_device device, resolve_method method_name,
       resolve_model model_name ~batch)
    with
    | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
      `Error (false, m)
    | Ok hw, Ok method_, Ok model ->
      Fmt.pr "%a@.@." Dnn.Model.pp model;
      let store = open_store cache_dir in
      Option.iter report_store_issues store;
      let report = Dnn.Runner.run ?store ~hw method_ model in
      Fmt.pr "%a@." Dnn.Runner.pp_report report;
      let torch = Dnn.Runner.run_pytorch ~hw model in
      Fmt.pr "%a@." Dnn.Runner.pp_report torch;
      report_trace ();
      `Ok ()
  in
  let doc =
    "Compile and estimate one end-to-end model, reusing the persistent \
     kernel store when one is configured."
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(
      ret
        (const run $ device_arg $ method_arg $ model_name_arg $ batch_arg
       $ cache_dir_arg $ no_incremental_arg $ trace_arg))

(* ---------- graph ---------- *)

(* Networks with a real dataflow builder get it; every other model name is
   lifted best-effort from its flat layer table. *)
let resolve_graph name ~batch =
  match String.lowercase_ascii name with
  | "resnet" | "resnet50" -> Ok (Dnn.Resnet.resnet50_graph ~batch ())
  | "mobilenet" -> Ok (Dnn.Mobilenet.mobilenet_v2_graph ~batch ())
  | "bert" -> Ok (Dnn.Transformer.bert_small_graph ~batch ())
  | "gpt2" -> Ok (Dnn.Transformer.gpt2_graph ~batch ())
  | other ->
    Result.map Dnn.Graph.of_model (resolve_model other ~batch)

let graph_dump_arg =
  let doc = "Dump format: $(b,text) or $(b,dot) (Graphviz)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("dot", `Dot) ]) `Text
    & info [ "dump" ] ~docv:"FORMAT" ~doc)

let no_fuse_arg =
  let doc = "Print the graph as built, without running the fusion pass." in
  Arg.(value & flag & info [ "no-fuse" ] ~doc)

let graph_cmd =
  let run model_name batch dump no_fuse trace =
    apply_trace trace;
    match resolve_graph model_name ~batch with
    | Error (`Msg m) -> `Error (false, m)
    | Ok g ->
      let fusion = if no_fuse then None else Some (Dnn.Fusion.fuse g) in
      let fused =
        match fusion with Some f -> f.Dnn.Fusion.graph | None -> g
      in
      (match dump with
      | `Dot -> print_string (Dnn.Graph.to_dot fused)
      | `Text ->
        Fmt.pr "%a@." Dnn.Graph.pp_text g;
        (match fusion with
        | None -> ()
        | Some f ->
          Fmt.pr "@.fusion: %d group(s), %d op(s) folded, %d refused@."
            (List.length f.Dnn.Fusion.groups)
            (List.fold_left
               (fun acc g -> acc + List.length g.Dnn.Fusion.folded)
               0 f.Dnn.Fusion.groups)
            (List.length f.Dnn.Fusion.refused);
          List.iter
            (fun grp -> Fmt.pr "  %a@." Dnn.Fusion.pp_group grp)
            f.Dnn.Fusion.groups;
          List.iter
            (fun r -> Fmt.pr "  %a@." Dnn.Fusion.pp_refusal r)
            f.Dnn.Fusion.refused;
          Fmt.pr "@.fused %a@." Dnn.Graph.pp_text fused);
        Fmt.pr "@.%a@." Dnn.Memplan.pp_full (Dnn.Memplan.plan fused));
      report_trace ();
      `Ok ()
  in
  let doc =
    "Print a model's dataflow graph (text or Graphviz), the epilogue-fusion \
     groups the pass chooses with any refusals and their GSR-F* codes, and \
     the live-range / peak-intermediate-footprint plan."
  in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(
      ret
        (const run $ model_name_arg $ batch_arg $ graph_dump_arg $ no_fuse_arg
       $ trace_arg))

(* ---------- verify ---------- *)

let verify_device_arg =
  let doc = "Device preset to verify against: rtx4090, orin or all." in
  Arg.(value & opt string "all" & info [ "device"; "d" ] ~docv:"DEVICE" ~doc)

let verify_methods_arg =
  let doc = "Comma-separated methods whose schedules are verified." in
  Arg.(
    value
    & opt string "gensor,roller,ansor"
    & info [ "methods"; "m" ] ~docv:"METHODS" ~doc)

let verify_op_arg =
  let doc = "Restrict to one workload label (default: all of Table IV)." in
  Arg.(value & opt (some string) None & info [ "op"; "o" ] ~docv:"LABEL" ~doc)

let verbose_arg =
  let doc = "Also print Warning- and Info-severity diagnostics." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let jobs_arg =
  let doc =
    "Domain-pool width for parallel compilation (default: GENSOR_JOBS, \
     else the machine's core count)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let format_arg =
  let doc =
    "Output format: $(b,text) (the default report), $(b,json) (compact \
     per-target JSON) or $(b,sarif) (SARIF 2.1.0 with the stable \
     diagnostic codes as rule ids)."
  in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let out_arg =
  let doc = "Write the json/sarif document to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let write_out out doc =
  match out with
  | None -> print_string doc
  | Some path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc doc);
    Fmt.pr "wrote %s@." path

let verify_cmd =
  let run device methods_csv op_filter format out verbose jobs no_incremental
      trace =
    apply_incremental no_incremental;
    apply_trace trace;
    let devices =
      if String.lowercase_ascii device = "all" then Ok Hardware.Presets.all
      else Result.map (fun hw -> [ hw ]) (resolve_device device)
    in
    let methods =
      List.fold_right
        (fun name acc ->
          Result.bind acc (fun ms ->
              Result.map (fun m -> m :: ms) (resolve_method name)))
        (String.split_on_char ',' methods_csv)
        (Ok [])
    in
    let entries =
      match op_filter with
      | None -> Ok Workloads.Table_iv.all
      | Some label -> (
        match Workloads.Table_iv.find label with
        | Some e -> Ok [ e ]
        | None -> Error (`Msg (Fmt.str "unknown workload %s" label)))
    in
    match (devices, methods, entries) with
    | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
      `Error (false, m)
    | Ok devices, Ok methods, Ok entries ->
      (* Compile every device x op x method cell through the parallel
         sweep; diagnostics run sequentially afterwards so the report
         order is stable. *)
      let ops =
        List.map
          (fun entry ->
            (entry.Workloads.Table_iv.label, entry.Workloads.Table_iv.op ()))
          entries
      in
      let cells = Pipeline.Methods.sweep ?jobs ~devices ~methods ops in
      let total_errors = ref 0 and total_warnings = ref 0 in
      let items = ref [] in
      let rows =
        List.map
          (fun cell ->
            let open Pipeline.Methods in
            let hw = cell.cell_device in
            let diags = Verify.run cell.cell_output.etir ~hw in
            let target =
              Fmt.str "%s/%s/%s"
                (Hardware.Gpu_spec.name hw)
                cell.cell_label cell.cell_method
            in
            items := Verify.Export.item ~target diags :: !items;
            let errors =
              Verify.Diagnostic.count Verify.Diagnostic.Error diags
            in
            let warnings =
              Verify.Diagnostic.count Verify.Diagnostic.Warning diags
            in
            total_errors := !total_errors + errors;
            total_warnings := !total_warnings + warnings;
            if format = `Text then
              List.iter
                (fun d ->
                  let open Verify.Diagnostic in
                  if is_error d || verbose then
                    Fmt.pr "%s/%s/%s %a@."
                      (Hardware.Gpu_spec.name hw)
                      cell.cell_label cell.cell_method pp d)
                (Verify.Diagnostic.by_severity diags);
            [ Hardware.Gpu_spec.name hw; cell.cell_label; cell.cell_method;
              string_of_int errors; string_of_int warnings;
              (if errors > 0 then "ILLEGAL" else "ok") ])
          cells
      in
      (match format with
      | `Text ->
        Report.Table.print
          (Report.Table.v
             ~headers:
               [ "device"; "op"; "method"; "errors"; "warnings"; "verdict" ]
             rows);
        Fmt.pr "@.verified %d schedules: %d error(s), %d warning(s)@."
          (List.length rows) !total_errors !total_warnings;
        Fmt.pr "%a@." Pipeline.Methods.pp_cache_stats ()
      | `Json -> write_out out (Verify.Export.json (List.rev !items))
      | `Sarif -> write_out out (Verify.Export.sarif (List.rev !items)));
      report_trace ();
      if !total_errors > 0 then
        `Error (false, "error-severity diagnostics found")
      else `Ok ()
  in
  let doc =
    "Run the bounds, race and lint passes over every schedule the selected \
     methods produce for the Table-IV workloads."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      ret
        (const run $ verify_device_arg $ verify_methods_arg $ verify_op_arg
       $ format_arg $ out_arg $ verbose_arg $ jobs_arg $ no_incremental_arg
       $ trace_arg))

(* ---------- analyze ---------- *)

let analyze_dynamic_arg =
  let doc =
    "Also certify the BERT-small dynamic-shape bucket set: each operator \
     family's largest sequence length is certified and the smaller buckets \
     are checked against its region."
  in
  Arg.(value & flag & info [ "dynamic" ] ~doc)

(* Certify the BERT bucket family on one device: group the bucket models'
   operators by layer role, certify the gensor schedule at each role's
   largest shape, then check every smaller bucket shape against the
   resulting region — the static side of what {!Dnn.Kernel_cache.dispatch}
   enforces at run time. *)
let analyze_bert ~hw (method_ : Pipeline.Methods.t) ~batch ~seqs =
  let models =
    List.map (fun seq -> (seq, Dnn.Transformer.bert_small ~batch ~seq ())) seqs
  in
  let roles : (string, (int * Ops.Op.t) list) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (seq, model) ->
      List.iter
        (fun layer ->
          let key = layer.Dnn.Model.layer_name in
          (match Hashtbl.find_opt roles key with
          | None ->
            order := key :: !order;
            Hashtbl.add roles key [ (seq, layer.Dnn.Model.op) ]
          | Some existing ->
            Hashtbl.replace roles key ((seq, layer.Dnn.Model.op) :: existing)))
        (Dnn.Model.layers model))
    models;
  List.map
    (fun role ->
      let entries =
        List.sort (fun (a, _) (b, _) -> compare b a) (Hashtbl.find roles role)
      in
      let (_, witness_op), rest = (List.hd entries, List.tl entries) in
      let output = method_.Pipeline.Methods.compile ~hw witness_op in
      let outcome =
        Verify.Cert.certify ~hw output.Pipeline.Methods.etir
      in
      let target =
        Fmt.str "%s/bert-small/%s/%s" (Hardware.Gpu_spec.name hw) role
          method_.Pipeline.Methods.name
      in
      let coverage =
        match outcome.Verify.Cert.cert with
        | None -> []
        | Some cert ->
          List.filter_map
            (fun (seq, op) ->
              match
                Verify.Cert.admits_compute cert (Ops.Op.compute op)
              with
              | Ok () -> None
              | Error m ->
                Some
                  (Verify.Diagnostic.v ~code:"GSR-C03"
                     Verify.Diagnostic.Warning Verify.Diagnostic.Cert
                     ~loc:(Fmt.str "bucket seq=%d" seq)
                     "bucket shape is outside the certified region (%s): \
                      dispatch would refuse it" m))
            rest
      in
      let region =
        Option.map
          (Fmt.str "%a" Verify.Cert.pp_region)
          outcome.Verify.Cert.cert
      in
      Verify.Export.item ?region ~target
        (outcome.Verify.Cert.diags @ coverage))
    (List.rev !order)

let analyze_cmd =
  let run device methods_csv op_filter format out dynamic verbose jobs
      no_incremental trace =
    apply_incremental no_incremental;
    apply_trace trace;
    let devices =
      if String.lowercase_ascii device = "all" then Ok Hardware.Presets.all
      else Result.map (fun hw -> [ hw ]) (resolve_device device)
    in
    let methods =
      List.fold_right
        (fun name acc ->
          Result.bind acc (fun ms ->
              Result.map (fun m -> m :: ms) (resolve_method name)))
        (String.split_on_char ',' methods_csv)
        (Ok [])
    in
    let entries =
      match op_filter with
      | None -> Ok Workloads.Table_iv.all
      | Some label -> (
        match Workloads.Table_iv.find label with
        | Some e -> Ok [ e ]
        | None -> Error (`Msg (Fmt.str "unknown workload %s" label)))
    in
    match (devices, methods, entries) with
    | Error (`Msg m), _, _ | _, Error (`Msg m), _ | _, _, Error (`Msg m) ->
      `Error (false, m)
    | Ok devices, Ok methods, Ok entries ->
      let ops =
        List.map
          (fun entry ->
            (entry.Workloads.Table_iv.label, entry.Workloads.Table_iv.op ()))
          entries
      in
      let cells = Pipeline.Methods.sweep ?jobs ~devices ~methods ops in
      let sweep_items =
        List.map
          (fun cell ->
            let open Pipeline.Methods in
            let hw = cell.cell_device in
            let outcome = Verify.Cert.certify ~hw cell.cell_output.etir in
            let target =
              Fmt.str "%s/%s/%s"
                (Hardware.Gpu_spec.name hw)
                cell.cell_label cell.cell_method
            in
            let region =
              Option.map
                (Fmt.str "%a" Verify.Cert.pp_region)
                outcome.Verify.Cert.cert
            in
            Verify.Export.item ?region ~target outcome.Verify.Cert.diags)
          cells
      in
      let dynamic_items =
        if not dynamic then []
        else
          List.concat_map
            (fun hw ->
              List.concat_map
                (fun m -> analyze_bert ~hw m ~batch:8 ~seqs:[ 64; 128; 192; 256 ])
                methods)
            devices
      in
      let items = sweep_items @ dynamic_items in
      let total_errors =
        List.fold_left
          (fun acc it ->
            acc
            + Verify.Diagnostic.count Verify.Diagnostic.Error
                it.Verify.Export.diags)
          0 items
      in
      (match format with
      | `Text ->
        let certified = ref 0 in
        let rows =
          List.map
            (fun it ->
              let open Verify.Export in
              let errors =
                Verify.Diagnostic.count Verify.Diagnostic.Error it.diags
              in
              let warnings =
                Verify.Diagnostic.count Verify.Diagnostic.Warning it.diags
              in
              if it.region <> None then incr certified;
              List.iter
                (fun d ->
                  if Verify.Diagnostic.is_error d || verbose then
                    Fmt.pr "%s %a@." it.target Verify.Diagnostic.pp_coded d)
                (Verify.Diagnostic.by_severity it.diags);
              [ it.target;
                Option.value it.region ~default:"-";
                string_of_int errors; string_of_int warnings;
                (if it.region = None then "REFUSED"
                 else if errors > 0 then "INVALID"
                 else "certified") ])
            items
        in
        Report.Table.print
          (Report.Table.v
             ~headers:[ "target"; "region"; "errors"; "warnings"; "verdict" ]
             rows);
        Fmt.pr "@.analyzed %d schedules: %d certified, %d error(s)@."
          (List.length items) !certified total_errors
      | `Json -> write_out out (Verify.Export.json items)
      | `Sarif -> write_out out (Verify.Export.sarif items));
      report_trace ();
      if total_errors > 0 then
        `Error (false, "certification failed with error-severity diagnostics")
      else `Ok ()
  in
  let doc =
    "Certify shape-parametric legality: run the symbolic \
     abstract-interpretation tier over every schedule the selected methods \
     produce and report each one's certified shape region, guard \
     obligations and refusals (optionally also the BERT dynamic-shape \
     bucket set)."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const run $ verify_device_arg $ verify_methods_arg $ verify_op_arg
       $ format_arg $ out_arg $ analyze_dynamic_arg $ verbose_arg $ jobs_arg
       $ no_incremental_arg $ trace_arg))

(* ---------- bench ---------- *)

(* Hand-rolled compile-time micro-benchmarks (the Bechamel harness lives in
   bench/wall.ml; this subcommand is the scriptable variant that CI captures
   as BENCH_compile.json).  Arms are labelled honestly: the "-seq" arm runs
   with one domain and the memo caches disabled, the plain arm with the
   requested pool width and caches on — on a single-core host the gap is
   the memoization/hoisting win alone. *)

type bench_row = {
  b_name : string;
  b_ns : float;             (* wall ns per run *)
  b_runs : int;
  b_states_s : float option;  (* construction throughput, states/s *)
  b_hit_rate : float option;  (* memo hit rate while the arm ran *)
  b_prune_rate : float option;
      (* fraction of pooled candidates dropped by dominance pruning *)
  b_jobs : int;
  b_counters : (string * int) list;
      (* unified-registry deltas while the measured runs executed *)
}

let memo_snapshot () =
  List.fold_left
    (fun (h, m) (_, s) -> (h + s.Parallel.Memo.hits, m + s.Parallel.Memo.misses))
    (0, 0) (Parallel.Memo.all_stats ())

(* Registry movement while an arm ran: entries whose value changed, as
   (name, delta).  Gauge-like entries (memo [entries]) can shrink on an
   eviction; the signed delta is the honest report. *)
let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      if v <> v0 then Some (name, v - v0) else None)
    after

let bench_arm ?(warmup = 0) ~name ~jobs ~runs ?states f =
  Trace.with_span ~name:"bench.arm" ~args:[ ("name", name) ] @@ fun () ->
  (* Untimed warmup runs: arms measuring a warm steady state (memo caches,
     allocator) must not fold their cold first run into the average — with
     --quick's 3 runs that would understate the warm throughput by a third. *)
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let h0, m0 = memo_snapshot () in
  let c0 = Trace.Counter.snapshot () in
  let t0 = Unix.gettimeofday () in
  let states_total = ref 0 in
  for _ = 1 to runs do
    states_total := !states_total + f ()
  done;
  let dt = (Unix.gettimeofday () -. t0) /. float_of_int runs in
  let counters = counter_delta c0 (Trace.Counter.snapshot ()) in
  let h1, m1 = memo_snapshot () in
  let lookups = h1 - h0 + (m1 - m0) in
  let hit_rate =
    if lookups = 0 then None
    else Some (float_of_int (h1 - h0) /. float_of_int lookups)
  in
  let states_s =
    match states with
    | Some () when dt > 0.0 ->
      Some (float_of_int !states_total /. float_of_int runs /. dt)
    | _ -> None
  in
  Fmt.pr "%-24s %10.3f ms/run%s@." name (dt *. 1e3)
    (match hit_rate with
    | Some r -> Fmt.str "  (%.1f%% memo hits)" (100.0 *. r)
    | None -> "");
  { b_name = name; b_ns = dt *. 1e9; b_runs = runs; b_states_s = states_s;
    b_hit_rate = hit_rate; b_prune_rate = None; b_jobs = jobs;
    b_counters = counters }

let bench_json rows ~networks ~jobs ~speedup ~speedup_incremental ~exec =
  let buf = Buffer.create 1024 in
  let field_opt = function
    | None -> "null"
    | Some v -> Fmt.str "%.3f" v
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"gensor-bench-compile/7\",\n";
  Buffer.add_string buf (Fmt.str "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Fmt.str "  \"cpus\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Fmt.str "  \"speedup_gensor_vs_seq\": %.3f,\n" speedup);
  Buffer.add_string buf
    (Fmt.str "  \"speedup_incremental_vs_full\": %s,\n"
       (field_opt speedup_incremental));
  (* Executor-tier summary (schema /6): throughput of the compiled bytecode
     VM vs the interpreter oracle, in domain points/s, plus their ratio.
     The per-arm exec rows carry the same numbers in [states_per_s]. *)
  (let compiled_s, interp_s, ratio = exec in
   Buffer.add_string buf
     (Fmt.str
        "  \"exec\": { \"compiled_points_per_s\": %s, \
         \"interp_points_per_s\": %s, \"speedup_compiled_vs_interp\": %s },\n"
        (field_opt compiled_s) (field_opt interp_s) (field_opt ratio)));
  (* network-e2e arm: fused-vs-unfused whole-network latency from the graph
     schedule (Table-IV-style), one line per model. *)
  Buffer.add_string buf "  \"networks\": [\n";
  List.iteri
    (fun i (label, (c : Dnn.Runner.fusion_comparison)) ->
      let f = c.Dnn.Runner.fc_fused and u = c.Dnn.Runner.fc_unfused in
      Buffer.add_string buf
        (Fmt.str
           "    { \"name\": %S, \"e2e_unfused_ms\": %.4f, \
            \"e2e_fused_ms\": %.4f, \"fusion_speedup\": %.3f, \
            \"folded\": %d, \"kernels_unfused\": %d, \"kernels_fused\": %d, \
            \"peak_unfused_bytes\": %d, \"peak_fused_bytes\": %d }%s\n"
           label
           (u.Dnn.Runner.g_e2e_s *. 1e3)
           (f.Dnn.Runner.g_e2e_s *. 1e3)
           (Dnn.Runner.fusion_speedup c)
           f.Dnn.Runner.g_folded u.Dnn.Runner.g_kernels
           f.Dnn.Runner.g_kernels u.Dnn.Runner.g_peak_bytes
           f.Dnn.Runner.g_peak_bytes
           (if i = List.length networks - 1 then "" else ",")))
    networks;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      (* The arm line carries every scalar (the --check reader matches
         [name] and [states_per_s] on one line); the registry deltas
         follow as a nested object so arms carry their counter snapshots. *)
      Buffer.add_string buf
        (Fmt.str
           "    { \"name\": %S, \"ns_per_run\": %.1f, \"runs\": %d, \
            \"states_per_s\": %s, \"cache_hit_rate\": %s, \
            \"prune_rate\": %s, \"jobs\": %d,\n"
           r.b_name r.b_ns r.b_runs (field_opt r.b_states_s)
           (field_opt r.b_hit_rate) (field_opt r.b_prune_rate) r.b_jobs);
      Buffer.add_string buf "      \"counters\": {";
      List.iteri
        (fun j (name, v) ->
          Buffer.add_string buf
            (Fmt.str "%s\"%s\": %d" (if j = 0 then " " else ", ") name v))
        r.b_counters;
      Buffer.add_string buf
        (Fmt.str " } }%s\n" (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---------- baseline regression check ---------- *)

(* Reads back the JSON that [bench_json] writes.  The format is the tool's
   own line-oriented output, so a full JSON parser would be overkill (and
   would be the repo's only external-parser dependency): each benchmark
   object lives on one line, keys are unambiguous, and we only need
   [name] and [states_per_s]. *)
let baseline_states_per_s file =
  let find_sub line pat =
    let n = String.length line and m = String.length pat in
    let rec go i =
      if i + m > n then None
      else if String.sub line i m = pat then Some (i + m)
      else go (i + 1)
    in
    go 0
  in
  let string_field line key =
    Option.bind (find_sub line (Fmt.str "\"%s\": \"" key)) (fun start ->
        Option.map
          (fun stop -> String.sub line start (stop - start))
          (String.index_from_opt line start '"'))
  in
  let float_field line key =
    Option.bind (find_sub line (Fmt.str "\"%s\": " key)) (fun start ->
        let stop = ref start in
        let n = String.length line in
        while
          !stop < n
          && (match line.[!stop] with
             | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr stop
        done;
        float_of_string_opt (String.sub line start (!stop - start)))
  in
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (string_field line "name", float_field line "states_per_s") with
       | Some name, Some v -> rows := (name, v) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

(* CI perf-smoke guard: every construction arm present in both this run and
   the committed baseline must stay within [tolerance] of the recorded
   states/s.  Arms the baseline does not know (or that record no
   throughput) are skipped, so adding arms never breaks an old baseline. *)
let check_against_baseline ?(tolerance = 0.30) rows file =
  match
    try Ok (baseline_states_per_s file) with Sys_error m -> Error m
  with
  | Error m -> Error (Fmt.str "cannot read baseline: %s" m)
  | Ok baseline ->
  let failures = ref [] in
  List.iter
    (fun r ->
      match (r.b_states_s, List.assoc_opt r.b_name baseline) with
      | Some now, Some base when base > 0.0 ->
        let floor = (1.0 -. tolerance) *. base in
        let verdict = if now < floor then "REGRESSED" else "ok" in
        if now < floor then failures := r.b_name :: !failures;
        Fmt.pr "check %-28s %10.0f states/s vs baseline %10.0f (floor %.0f): %s@."
          r.b_name now base floor verdict
      | _ -> ())
    rows;
  match List.rev !failures with
  | [] ->
    Fmt.pr "check: no construction arm regressed more than %.0f%%@."
      (100.0 *. tolerance);
    Ok ()
  | names ->
    Error
      (Fmt.str "states/s regressed more than %.0f%% vs %s: %s"
         (100.0 *. tolerance) file (String.concat ", " names))

let bench_json_arg =
  let doc = "Write the results as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let bench_quick_arg =
  let doc = "Fewer repetitions (CI smoke mode)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let bench_check_arg =
  let doc =
    "Compare this run against the committed baseline JSON $(docv) and fail \
     when any construction arm's states/s regresses by more than 30%."
  in
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE" ~doc)

let bench_cmd =
  let run json_file quick jobs cache_dir no_incremental check_file trace =
    apply_incremental no_incremental;
    apply_trace trace;
    let incremental = Costmodel.Delta.enabled () in
    let hw = Hardware.Presets.rtx4090 in
    let gemm_op = Ops.Matmul.gemm ~m:1024 ~n:1024 ~k:1024 () in
    let gemm = Ops.Op.compute gemm_op in
    let jobs =
      match jobs with Some j -> max 1 j | None -> Parallel.Pool.default_jobs ()
    in
    let runs = if quick then 3 else 8 in
    let eval_iters = if quick then 20_000 else 100_000 in
    let quick_gensor =
      { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 }
    in
    let rows = ref [] in
    let arm row = rows := row :: !rows in
    (* Prune-rate bookkeeping: the gensor arms accumulate how many pooled
       candidates the dominance sweep dropped vs how many survived to the
       full-model pass. *)
    let with_prune_rate f =
      let pruned = ref 0 and evaluated = ref 0 in
      let row =
        f (fun (r : Gensor.Optimizer.result) ->
            pruned := !pruned + r.Gensor.Optimizer.candidates_pruned;
            evaluated := !evaluated + r.Gensor.Optimizer.candidates_evaluated)
      in
      let pooled = !pruned + !evaluated in
      { row with
        b_prune_rate =
          (if pooled = 0 then None
           else Some (float_of_int !pruned /. float_of_int pooled)) }
    in
    (* Routed through Pipeline.Methods (not Roller.construct directly) so a
       traced bench exercises the per-method pipeline arm like a sweep
       does; the method wrapper adds one span and a verify gate that is
       off by default. *)
    let roller_method = Pipeline.Methods.roller () in
    arm
      (bench_arm ~name:"roller-gemm1024" ~jobs:1 ~runs ~states:() (fun () ->
           (* tree_steps is Roller's candidates_examined: the construction
              work the arm actually did, comparable as states/s. *)
           (roller_method.Pipeline.Methods.compile ~hw gemm_op)
             .Pipeline.Methods.tree_steps));
    (* Bounded construction-graph enumeration with dominance pruning: the
       graph layer's arm (and its spans/counters in a traced run). *)
    arm
      (bench_arm ~name:"graph-explore-512" ~jobs:1 ~runs ~states:()
         (fun () ->
           let seed =
             Sched.Etir.create
               ~num_levels:(Hardware.Gpu_spec.schedulable_cache_levels hw)
               gemm
           in
           Gensor.Graph.size
             (Gensor.Graph.explore ~max_states:512 ~prune_hw:hw seed)));
    (* Sequential, uncached, full re-evaluation at every state: the oracle
       code path (--no-incremental).  The gap to the next arm is the
       incremental-evaluation win alone. *)
    Parallel.Memo.set_enabled false;
    Parallel.Memo.clear_all ();
    Costmodel.Delta.set_enabled false;
    let seq_full =
      with_prune_rate (fun record ->
          bench_arm ~warmup:1 ~name:"gensor-gemm1024-seq-full" ~jobs:1 ~runs
            ~states:()
            (fun () ->
              let r =
                Gensor.Optimizer.optimize ~config:quick_gensor ~jobs:1 ~hw gemm
              in
              record r;
              r.Gensor.Optimizer.states_explored))
    in
    arm seq_full;
    Costmodel.Delta.set_enabled incremental;
    (* Sequential, uncached, incremental components: the pre-parallel-runtime
       code path with per-edge component reuse. *)
    let seq =
      with_prune_rate (fun record ->
          bench_arm ~warmup:1 ~name:"gensor-gemm1024-seq" ~jobs:1 ~runs
            ~states:()
            (fun () ->
              let r =
                Gensor.Optimizer.optimize ~config:quick_gensor ~jobs:1 ~hw gemm
              in
              record r;
              r.Gensor.Optimizer.states_explored))
    in
    arm seq;
    (* Parallel + memoised: the shipped configuration. *)
    Parallel.Memo.set_enabled true;
    Parallel.Memo.clear_all ();
    let par =
      with_prune_rate (fun record ->
          bench_arm ~warmup:1 ~name:"gensor-gemm1024" ~jobs ~runs ~states:()
            (fun () ->
              let r =
                Gensor.Optimizer.optimize ~config:quick_gensor ~jobs ~hw gemm
              in
              record r;
              r.Gensor.Optimizer.states_explored))
    in
    arm par;
    arm
      (bench_arm ~name:"ansor200-gemm1024" ~jobs ~runs ~states:() (fun () ->
           let config =
             { Ansor.Search.default_config with Ansor.Search.n_trials = 200 }
           in
           (Ansor.Search.search ~config ~jobs ~hw gemm).Ansor.Search.trials));
    let etir =
      (Gensor.Optimizer.optimize ~config:quick_gensor ~jobs ~hw gemm)
        .Gensor.Optimizer.etir
    in
    arm
      (bench_arm ~name:"costmodel-eval" ~jobs:1 ~runs:1 (fun () ->
           for _ = 1 to eval_iters do
             ignore (Costmodel.Model.evaluate ~hw etir)
           done;
           0));
    (* Rescale the eval arm to per-evaluation cost. *)
    (match !rows with
    | r :: rest ->
      rows := { r with b_ns = r.b_ns /. float_of_int eval_iters } :: rest
    | [] -> ());
    arm
      (bench_arm ~name:"costmodel-eval-cached" ~jobs:1 ~runs:1 (fun () ->
           for _ = 1 to eval_iters do
             ignore (Costmodel.Model.evaluate_cached ~hw etir)
           done;
           0));
    (match !rows with
    | r :: rest ->
      rows := { r with b_ns = r.b_ns /. float_of_int eval_iters } :: rest
    | [] -> ());
    (* Persistent-store arm: a fresh kernel cache opened over an already
       warm store — measures open + preload + exact-hit, i.e. what a second
       process pays instead of a cold construction. *)
    (match cache_dir with
    | None -> ()
    | Some dir ->
      let store = Artifact.Store.open_ dir in
      let fill =
        Dnn.Kernel_cache.create ~config:quick_gensor ~store ~hw ()
      in
      ignore (Dnn.Kernel_cache.compile fill gemm);
      arm
        (bench_arm ~name:"kcache-store-warm" ~jobs:1 ~runs (fun () ->
             let cache =
               Dnn.Kernel_cache.create ~config:quick_gensor
                 ~store:(Artifact.Store.open_ dir) ~hw ()
             in
             let _, lookup = Dnn.Kernel_cache.compile cache gemm in
             assert (lookup = Dnn.Kernel_cache.Hit);
             0)));
    (* Executor arms: throughput of the two execution tiers in domain
       points/s (reported through the states/s column, so the --check
       baseline guards them like any construction arm).  The compiled VM
       runs the full benchmark shape; the interpreter oracle runs a smaller
       instance — its points/s is shape-insensitive — so the arm stays
       cheap.  Program compilation happens once outside the timed loop,
       mirroring how the verifier amortises it across runs. *)
    let gemm256 = Ops.Op.compute (Ops.Matmul.gemm ~m:256 ~n:256 ~k:256 ()) in
    let gemm64 = Ops.Op.compute (Ops.Matmul.gemm ~m:64 ~n:64 ~k:64 ()) in
    let exec_compiled =
      let etir = (Roller.construct ~hw gemm256).Roller.etir in
      let inputs = Exec.Reference.random_inputs ~seed:1 gemm256 in
      let prog = Exec.Compiled.compile etir in
      let pts = Tensor_lang.Compute.domain_points gemm256 in
      bench_arm ~warmup:1 ~name:"exec-gemm256" ~jobs:1 ~runs ~states:()
        (fun () ->
          ignore (Exec.Compiled.run_compiled prog inputs);
          pts)
    in
    arm exec_compiled;
    let exec_interp =
      let etir = (Roller.construct ~hw gemm64).Roller.etir in
      let inputs = Exec.Reference.random_inputs ~seed:1 gemm64 in
      let pts = Tensor_lang.Compute.domain_points gemm64 in
      bench_arm ~warmup:1 ~name:"exec-gemm64-interp" ~jobs:1 ~runs ~states:()
        (fun () ->
          ignore (Exec.Scheduled.run etir inputs);
          pts)
    in
    arm exec_interp;
    let exec_speedup =
      match (exec_compiled.b_states_s, exec_interp.b_states_s) with
      | Some c, Some i when i > 0.0 -> Some (c /. i)
      | _ -> None
    in
    let rows = List.rev !rows in
    (* network-e2e arm: compile all three networks through the graph path,
       fused and unfused, and report whole-network latency from the graph
       schedule.  Roller keeps the arm cheap; the fused-vs-unfused delta is
       method-independent enough for the guard below. *)
    let networks =
      Trace.with_span ~name:"bench.network-e2e" @@ fun () ->
      List.map
        (fun (label, g) ->
          (label, Dnn.Runner.compare_fusion ~jobs ~hw roller_method g))
        [ ("resnet50", Dnn.Resnet.resnet50_graph ~batch:8 ());
          ("mobilenet", Dnn.Mobilenet.mobilenet_v2_graph ~batch:8 ());
          ("bert", Dnn.Transformer.bert_small_graph ~batch:8 ()) ]
    in
    Fmt.pr "@.";
    Report.Table.print
      (Report.Table.v
         ~headers:
           [ "network"; "unfused ms"; "fused ms"; "speedup"; "folded";
             "peak unfused"; "peak fused" ]
         (List.map
            (fun (label, (c : Dnn.Runner.fusion_comparison)) ->
              let f = c.Dnn.Runner.fc_fused
              and u = c.Dnn.Runner.fc_unfused in
              [ label;
                Fmt.str "%.3f" (u.Dnn.Runner.g_e2e_s *. 1e3);
                Fmt.str "%.3f" (f.Dnn.Runner.g_e2e_s *. 1e3);
                Fmt.str "%.2fx" (Dnn.Runner.fusion_speedup c);
                string_of_int f.Dnn.Runner.g_folded;
                Fmt.str "%a" Dnn.Memplan.pp_bytes u.Dnn.Runner.g_peak_bytes;
                Fmt.str "%a" Dnn.Memplan.pp_bytes f.Dnn.Runner.g_peak_bytes ])
            networks));
    let speedup = seq.b_ns /. par.b_ns in
    (* states/s is the honest incremental-vs-full metric: both arms run the
       same chains, but the full arm may stop on the wall-clock budget with
       fewer states explored, which flatters its ns/run. *)
    let speedup_incremental =
      match (seq.b_states_s, seq_full.b_states_s) with
      | Some inc, Some full when full > 0.0 && incremental ->
        Some (inc /. full)
      | _ -> None
    in
    Fmt.pr "@.gensor-gemm1024: %.2fx vs sequential uncached (%d jobs, %d cpus)@."
      speedup jobs
      (Domain.recommended_domain_count ());
    (match speedup_incremental with
    | Some s ->
      Fmt.pr "incremental evaluation: %.2fx states/s vs full re-evaluation@." s
    | None -> ());
    (match par.b_prune_rate with
    | Some r -> Fmt.pr "dominance pruning: %.1f%% of pooled candidates@." (100.0 *. r)
    | None -> ());
    (match (exec_compiled.b_states_s, exec_interp.b_states_s, exec_speedup) with
    | Some c, Some i, Some s ->
      Fmt.pr
        "executor: compiled %.0f Mpt/s vs interpreter %.1f Mpt/s (%.1fx)@."
        (c /. 1e6) (i /. 1e6) s
    | _ -> ());
    Fmt.pr "%a@." Pipeline.Methods.pp_cache_stats ();
    (match json_file with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc
        (bench_json rows ~networks ~jobs ~speedup ~speedup_incremental
           ~exec:(exec_compiled.b_states_s, exec_interp.b_states_s, exec_speedup));
      close_out oc;
      Fmt.pr "wrote %s@." file);
    report_trace ();
    match check_file with
    | None -> `Ok ()
    | Some file -> (
      (* Besides the throughput baseline, --check guards the fusion win
         itself: the graph path must beat its own unfused schedule on the
         residual and transformer networks (the paper's Table-IV setting). *)
      let fusion_failures =
        List.filter_map
          (fun (label, c) ->
            if
              List.mem label [ "resnet50"; "bert" ]
              && Dnn.Runner.fusion_speedup c <= 1.0
            then Some label
            else None)
          networks
      in
      (* The compiled tier must hold its headline win over the interpreter
         (well under the measured 70-150x, far above noise). *)
      let exec_failure =
        match exec_speedup with
        | Some s when s < 20.0 ->
          [ Fmt.str
              "compiled executor only %.1fx faster than the interpreter \
               (floor 20x)"
              s ]
        | _ -> []
      in
      let failures =
        (match check_against_baseline rows file with
        | Ok () -> []
        | Error m -> [ m ])
        @ (match fusion_failures with
          | [] -> []
          | names ->
            [ Fmt.str "fused e2e does not beat unfused on: %s"
                (String.concat ", " names) ])
        @ exec_failure
      in
      match failures with
      | [] -> `Ok ()
      | ms -> `Error (false, String.concat "; " ms))
  in
  let doc =
    "Micro-benchmark the optimisers (compile-time wall clock), optionally \
     write the results as JSON, and optionally guard against throughput \
     regressions with $(b,--check)."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      ret
        (const run $ bench_json_arg $ bench_quick_arg $ jobs_arg
       $ cache_dir_arg $ no_incremental_arg $ bench_check_arg $ trace_arg))

(* ---------- cache ---------- *)

(* Cache maintenance requires an explicit store: --cache-dir or
   GENSOR_CACHE_DIR. *)
let with_store cache_dir f =
  match open_store cache_dir with
  | None ->
    `Error
      ( false,
        Fmt.str "no store configured: pass --cache-dir or set %s"
          Artifact.Store.env_var )
  | Some store -> f store

let cache_ls_cmd =
  let run cache_dir =
    with_store cache_dir (fun store ->
        report_store_issues store;
        Report.Table.print
          (Report.Table.v
             ~headers:
               [ "key"; "op"; "shape"; "method"; "device"; "score"; "steps";
                 "verify" ]
             (List.map
                (fun (key, (r : Artifact.Record.t)) ->
                  [ String.sub key 0 12;
                    Tensor_lang.Compute.name r.compute;
                    Artifact.Record.shape_string r;
                    r.method_name;
                    r.device_fingerprint;
                    Fmt.str "%.3g" (Costmodel.Metrics.score r.metrics);
                    string_of_int r.steps;
                    (match r.verify with
                    | Artifact.Record.Not_verified -> "-"
                    | Artifact.Record.Verified ds ->
                      let errs = Artifact.Record.verify_errors r in
                      if errs > 0 then Fmt.str "%d error(s)" errs
                      else Fmt.str "ok (%d diags)" (List.length ds)) ])
                (Artifact.Store.entries store)));
        `Ok ())
  in
  let doc = "List every artifact in the persistent kernel store." in
  Cmd.v (Cmd.info "ls" ~doc) Term.(ret (const run $ cache_dir_arg))

let cache_stats_cmd =
  let run cache_dir =
    with_store cache_dir (fun store ->
        Fmt.pr "store: %s@." (Artifact.Store.dir store);
        Fmt.pr "entries: %d (%d bytes on disk)@."
          (Artifact.Store.size store)
          (Artifact.Store.total_bytes store);
        (match Artifact.Store.issues store with
        | [] -> ()
        | issues ->
          Fmt.pr "skipped %d unreadable file(s):@." (List.length issues);
          List.iter
            (fun i -> Fmt.pr "  %a@." Artifact.Store.pp_issue i)
            issues);
        (* In-process counters: the memo caches and the incremental
           component-evaluation stats for whatever this invocation ran. *)
        Fmt.pr "%a@." Pipeline.Methods.pp_cache_stats ();
        `Ok ())
  in
  let doc =
    "Show entry count, on-disk size, skipped files and in-process cache \
     counters."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ cache_dir_arg))

let cache_purge_cmd =
  let run cache_dir =
    with_store cache_dir (fun store ->
        let n = Artifact.Store.purge store in
        Fmt.pr "purged %d artifact(s) from %s@." n (Artifact.Store.dir store);
        `Ok ())
  in
  let doc = "Delete every artifact in the store." in
  Cmd.v (Cmd.info "purge" ~doc) Term.(ret (const run $ cache_dir_arg))

let cache_key_arg =
  let doc = "Store key of the artifact (as shown by `gensor cache ls`)." in
  Arg.(required & opt (some string) None & info [ "key"; "k" ] ~docv:"KEY" ~doc)

let cache_out_arg =
  let doc = "Destination file for the exported artifact." in
  Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let cache_export_cmd =
  let run cache_dir key dest =
    with_store cache_dir (fun store ->
        (* `cache ls` shows a 12-character prefix; accept it. *)
        let resolved =
          match
            List.filter
              (fun (k, _) ->
                String.length key <= String.length k
                && String.equal key (String.sub k 0 (String.length key)))
              (Artifact.Store.entries store)
          with
          | [ (k, _) ] -> Ok k
          | [] -> Error (Fmt.str "no artifact with key %s" key)
          | _ :: _ -> Error (Fmt.str "key prefix %s is ambiguous" key)
        in
        match
          Result.bind resolved (fun key ->
              Result.map
                (fun () -> key)
                (Artifact.Store.export store ~key ~dest))
        with
        | Ok key ->
          Fmt.pr "exported %s to %s@." key dest;
          `Ok ()
        | Error m -> `Error (false, m))
  in
  let doc = "Copy one artifact file out of the store." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(ret (const run $ cache_dir_arg $ cache_key_arg $ cache_out_arg))

let cache_cmd =
  let doc = "Inspect and maintain the persistent kernel store." in
  Cmd.group (Cmd.info "cache" ~doc)
    [ cache_ls_cmd; cache_stats_cmd; cache_purge_cmd; cache_export_cmd ]

(* ---------- trace ---------- *)

let trace_file_arg =
  let doc = "Trace file to check (as written by --trace / GENSOR_TRACE)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_check_cmd =
  let run file =
    match Trace.validate_file file with
    | Ok v ->
      Fmt.pr "%s: %d event(s), %d balanced span(s) across %d lane(s), %d counter(s)@."
        file v.Trace.v_events v.Trace.v_spans v.Trace.v_tids v.Trace.v_counters;
      `Ok ()
    | Error m -> `Error (false, m)
  in
  let doc =
    "Validate a Chrome-format trace: well-formed events and balanced, \
     properly nested spans on every thread lane.  Exits non-zero on any \
     violation (CI uses this as the trace-smoke gate)."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ trace_file_arg))

let trace_cmd =
  let doc = "Inspect traces recorded with --trace or GENSOR_TRACE." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_check_cmd ]

(* ---------- devices ---------- *)

let devices_cmd =
  let run () =
    List.iter (fun hw -> Fmt.pr "%a@.@." Hardware.Gpu_spec.pp hw)
      Hardware.Presets.all
  in
  let doc = "Show the device presets." in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const run $ const ())

let () =
  let doc = "Gensor: graph-based construction tensor compilation (reproduction)" in
  let info = Cmd.info "gensor" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; ops_cmd; model_cmd; graph_cmd; devices_cmd;
            verify_cmd; analyze_cmd;
            bench_cmd; cache_cmd; trace_cmd ]))
