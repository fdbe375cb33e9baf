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
  let run device method_name label emit_cuda cache_dir trace =
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
       $ cache_dir_arg $ trace_arg))

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
  let run device method_name model_name batch cache_dir trace =
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
      let graph = Dnn.Graph.of_model model in
      let report = Dnn.Runner.run_graph ?store ~fuse:false ~hw method_ graph in
      Fmt.pr "%a@." Dnn.Runner.pp_graph_report report;
      let torch =
        Dnn.Runner.run_graph ~fuse:false ~hw (Pipeline.Methods.pytorch ()) graph
      in
      Fmt.pr "%a@." Dnn.Runner.pp_graph_report torch;
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
       $ cache_dir_arg $ trace_arg))

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

(* A sweep cell's report name, [device/op/method]. *)
let cell_target (cell : Pipeline.Methods.cell) =
  Fmt.str "%s/%s/%s"
    (Hardware.Gpu_spec.name cell.Pipeline.Methods.cell_device)
    cell.Pipeline.Methods.cell_label cell.Pipeline.Methods.cell_method

(* An export item for a certification outcome: its region, when one was
   certified, and its diagnostics followed by [extra]. *)
let cert_item ~target ?(extra = []) (outcome : Verify.Cert.outcome) =
  let region =
    Option.map (Fmt.str "%a" Verify.Cert.pp_region) outcome.Verify.Cert.cert
  in
  Verify.Export.item ?region ~target (outcome.Verify.Cert.diags @ extra)

(* The device x method x Table-IV sweep that verify and analyze run. *)
let resolve_sweep device methods_csv op_filter =
  let ( let* ) = Result.bind in
  let* devices =
    if String.lowercase_ascii device = "all" then Ok Hardware.Presets.all
    else Result.map (fun hw -> [ hw ]) (resolve_device device)
  in
  let* methods =
    List.fold_right
      (fun name acc ->
        Result.bind acc (fun ms ->
            Result.map (fun m -> m :: ms) (resolve_method name)))
      (String.split_on_char ',' methods_csv)
      (Ok [])
  in
  let* entries =
    match op_filter with
    | None -> Ok Workloads.Table_iv.all
    | Some label -> (
      match Workloads.Table_iv.find label with
      | Some e -> Ok [ e ]
      | None -> Error (`Msg (Fmt.str "unknown workload %s" label)))
  in
  Ok
    ( devices,
      methods,
      List.map
        (fun entry ->
          (entry.Workloads.Table_iv.label, entry.Workloads.Table_iv.op ()))
        entries )

let verify_cmd =
  let run device methods_csv op_filter format out verbose jobs trace =
    apply_trace trace;
    match resolve_sweep device methods_csv op_filter with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (devices, methods, ops) ->
      (* Compile every device x op x method cell through the parallel
         sweep; diagnostics run sequentially afterwards so the report
         order is stable. *)
      let cells = Pipeline.Methods.sweep ?jobs ~devices ~methods ops in
      let total_errors = ref 0 and total_warnings = ref 0 in
      let items = ref [] in
      let rows =
        List.map
          (fun cell ->
            let open Pipeline.Methods in
            let hw = cell.cell_device in
            let diags = Verify.run cell.cell_output.etir ~hw in
            let target = cell_target cell in
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
                    Fmt.pr "%s %a@." target pp d)
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
        Fmt.pr "%a@." Pipeline.Methods.pp_incremental_stats ()
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
       $ format_arg $ out_arg $ verbose_arg $ jobs_arg $ trace_arg))

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
      cert_item ~target ~extra:coverage outcome)
    (List.rev !order)

let analyze_cmd =
  let run device methods_csv op_filter format out dynamic verbose jobs trace =
    apply_trace trace;
    match resolve_sweep device methods_csv op_filter with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (devices, methods, ops) ->
      let cells = Pipeline.Methods.sweep ?jobs ~devices ~methods ops in
      let sweep_items =
        List.map
          (fun cell ->
            let open Pipeline.Methods in
            cert_item ~target:(cell_target cell)
              (Verify.Cert.certify ~hw:cell.cell_device cell.cell_output.etir))
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
       $ trace_arg))

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
        `Ok ())
  in
  let doc = "Show entry count, on-disk size and skipped files." in
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
    "Validate a Chrome-format trace: a JSON document whose traceEvents \
     are well-formed, with balanced, properly nested spans on every thread \
     lane.  Exits non-zero on any violation (CI uses this as the \
     trace-smoke gate)."
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
            verify_cmd; analyze_cmd; cache_cmd; trace_cmd ]))
