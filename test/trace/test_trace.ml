(* The tracing/metrics subsystem: env parsing and warn-once, GENSOR_JOBS
   validation in the pool, span balance through the real optimizer hot
   path, counter-registry accumulation across worker domains, and the
   transparency property — tracing on vs off must not change the chosen
   schedule. *)

open Sched

let hw = Hardware.Presets.rtx4090
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gemm ?(m = 128) ?(n = 128) ?(k = 64) () =
  Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ())

(* Unix.putenv cannot unset; an empty value reads back as the documented
   false/None spelling, which every knob here treats as unset-equivalent. *)
let with_env key value f =
  Unix.putenv key value;
  Fun.protect ~finally:(fun () -> Unix.putenv key "") f

(* ---------- Env ---------- *)

let test_env_bool_spellings () =
  Trace.Env.reset_warnings ();
  let read v = with_env "GENSOR_TEST_B" v (fun () ->
      Trace.Env.bool ~default:false "GENSOR_TEST_B")
  in
  List.iter
    (fun v -> check_bool (Fmt.str "%S is true" v) true (read v))
    [ "1"; "true"; "TRUE"; "Yes"; "on"; " ON " ];
  List.iter
    (fun v ->
      check_bool (Fmt.str "%S is false" v) false
        (with_env "GENSOR_TEST_B" v (fun () ->
             Trace.Env.bool ~default:true "GENSOR_TEST_B")))
    [ "0"; "false"; "No"; "OFF"; "" ];
  Alcotest.(check (list string)) "no warnings for valid spellings" []
    (Trace.Env.warned ())

let test_env_bool_garbage_warns_once () =
  Trace.Env.reset_warnings ();
  with_env "GENSOR_TEST_B" "maybe" (fun () ->
      check_bool "falls back to default" true
        (Trace.Env.bool ~default:true "GENSOR_TEST_B");
      check_bool "falls back to default (false)" false
        (Trace.Env.bool ~default:false "GENSOR_TEST_B"));
  Alcotest.(check (list string)) "warned exactly once"
    [ "GENSOR_TEST_B" ] (Trace.Env.warned ());
  Trace.Env.reset_warnings ()

let test_env_int_parse_and_clamp () =
  Trace.Env.reset_warnings ();
  let read ?min v = with_env "GENSOR_TEST_I" v (fun () ->
      Trace.Env.int ?min ~default:7 "GENSOR_TEST_I")
  in
  check_int "plain" 12 (read "12");
  check_int "underscores" 1000 (read "1_000");
  check_int "hex" 16 (read "0x10");
  check_int "whitespace trimmed" 3 (read " 3 ");
  check_int "garbage falls back" 7 (read "twelve");
  check_int "below min clamps" 1 (read ~min:1 "0");
  check_int "negative clamps" 1 (read ~min:1 "-4");
  check_int "at min passes" 1 (read ~min:1 "1");
  check_bool "garbage and clamp warned" true
    (List.mem "GENSOR_TEST_I" (Trace.Env.warned ()));
  Trace.Env.reset_warnings ()

(* ---------- GENSOR_JOBS validation (Pool) ---------- *)

let test_pool_jobs_env_validation () =
  Trace.Env.reset_warnings ();
  let jobs v = with_env "GENSOR_JOBS" v Parallel.Pool.default_jobs in
  check_int "explicit value honoured" 3 (jobs "3");
  check_int "zero clamps to 1" 1 (jobs "0");
  check_int "negative clamps to 1" 1 (jobs "-2");
  let garbage = jobs "lots" in
  check_bool "garbage falls back to >=1 default" true (garbage >= 1);
  check_bool "invalid GENSOR_JOBS warned" true
    (List.mem "GENSOR_JOBS" (Trace.Env.warned ()));
  (* Warn-once: the repeated reads above must have produced one entry. *)
  check_int "warned once, not per read" 1
    (List.length
       (List.filter (String.equal "GENSOR_JOBS") (Trace.Env.warned ())));
  Trace.Env.reset_warnings ()

(* ---------- spans ---------- *)

let temp_trace () = Filename.temp_file "gensor-test-trace" ".json"

(* The events of a written trace, parsed. *)
let trace_events path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  match Result.map (Json.member "traceEvents") (Json.parse body) with
  | Ok (Some (Json.Array evs)) -> evs
  | Ok _ -> Alcotest.fail "no traceEvents array"
  | Error m -> Alcotest.fail m

(* [field key ev] is the string member [key] of event [ev], if any;
   [arg key ev] the string arg [key]. *)
let field key ev =
  match Json.member key ev with Some (Json.String s) -> Some s | _ -> None

let arg key ev = Option.bind (Json.member "args" ev) (field key)

let events_named name ~ph evs =
  List.filter (fun ev -> field "name" ev = Some name && field "ph" ev = Some ph) evs

(* Lanes (exported tids) on which a span named [name] opens. *)
let lanes_of evs name =
  events_named name ~ph:"B" evs
  |> List.map (fun ev -> Json.member "tid" ev)
  |> List.sort_uniq compare

(* [meeting ~lanes m] compiles like [m], except that its first [lanes]
   compiles wait for each other (for up to 10 s) before they start.  Under
   a pool of at least [lanes] lanes they therefore run on distinct domains,
   so a test can rely on worker-lane spans and counter increments instead
   of on scheduling luck. *)
let meeting ~lanes (m : Pipeline.Methods.t) =
  let arrived = Atomic.make 0 in
  { m with
    Pipeline.Methods.compile =
      (fun ~hw op ->
        Atomic.incr arrived;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get arrived < lanes && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        m.Pipeline.Methods.compile ~hw op) }

(* Distinct compute-bound GEMMs: one sweep cell each. *)
let sweep_ops () =
  List.map
    (fun (m, n, k) ->
      (Fmt.str "gemm%dx%dx%d" m n k, Ops.Matmul.gemm ~m ~n ~k ()))
    [ (128, 128, 64); (64, 64, 64); (128, 64, 64); (64, 128, 64) ]

(* Every E must close the B on top of its lane's stack, even though the
   traced sweep compiles its kernels on two domains and polish/prune/score
   spans nest inside each optimize. *)
let test_span_nesting_well_formed () =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.set_output (Some path);
  check_bool "tracing enabled" true (Trace.enabled ());
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 2 }
  in
  let methods = [ meeting ~lanes:2 (Pipeline.Methods.gensor ~config ()) ] in
  ignore
    (Pipeline.Methods.sweep ~jobs:2 ~devices:[ hw ] ~methods (sweep_ops ()));
  check_bool "events recorded" true (Trace.recorded_events () > 0);
  (match Trace.flush () with
  | None -> Alcotest.fail "flush returned no path"
  | Some p -> Alcotest.(check string) "flushed to the configured path" path p);
  check_bool "tracing disabled after flush" false (Trace.enabled ());
  match Trace.validate_file path with
  | Error m -> Alcotest.fail m
  | Ok v ->
    check_bool "spans present" true (v.Trace.v_spans > 0);
    check_bool "counters exported" true (v.Trace.v_counters > 0);
    (* The instrumented layers all appear in an optimizer run. *)
    let evs = trace_events path in
    List.iter
      (fun name ->
        check_bool (name ^ " span present") true
          (List.exists (fun ev -> field "name" ev = Some name) evs))
      [ "pipeline.sweep"; "pool.map"; "pool.chunk"; "method.compile";
        "optimizer.optimize"; "optimizer.chains"; "anneal.run";
        "polish.greedy" ];
    (* The kernels really compiled on a worker lane as well as the
       caller's. *)
    List.iter
      (fun name ->
        check_bool (name ^ " on two lanes") true
          (List.length (lanes_of evs name) >= 2))
      [ "pool.chunk"; "optimizer.optimize"; "anneal.run" ]

(* Allocation is visible per span: a traced optimize of Table IV's M1
   reports the minor words its anneal chains allocated, and the export
   stays valid. *)
let test_span_minor_words () =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let op =
    match Workloads.Table_iv.find "M1" with
    | Some entry -> entry.Workloads.Table_iv.op ()
    | None -> Alcotest.fail "Table IV has no M1"
  in
  Trace.set_output (Some path);
  ignore (Gensor.Optimizer.optimize ~hw (Ops.Op.compute op));
  ignore (Trace.flush ());
  Result.iter_error Alcotest.fail (Trace.validate_file path);
  let closes =
    List.filter_map
      (fun ev -> Option.bind (arg "minor_words" ev) float_of_string_opt)
      (events_named "anneal.run" ~ph:"E" (trace_events path))
  in
  check_bool "anneal.run closes recorded" true (closes <> []);
  List.iter
    (fun words -> check_bool "anneal.run minor_words > 0" true (words > 0.0))
    closes

(* A hand-written trace: one event per line in the exporter's framing;
   [name] is JSON string text, escapes included. *)
let event ~name ~ph =
  Fmt.str {|{"name":"%s","cat":"gensor","ph":"%s","ts":1.0,"pid":1,"tid":0}|} name ph

let trace_body events =
  "{ \"traceEvents\": [\n" ^ String.concat ",\n" events
  ^ "\n], \"displayTimeUnit\": \"ms\" }\n"

(* [check_rejected ~at body]: validation of a file holding [body] fails,
   and the message locates the fault at [at] ("byte ..." or the event). *)
let check_rejected ~at body =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc body);
  match Trace.validate_file path with
  | Ok _ -> Alcotest.failf "accepted %S" body
  | Error m ->
    check_bool (Fmt.str "%S locates the fault at %S" m at) true
      (String.starts_with ~prefix:(path ^ ": " ^ at) m)

let test_validate_rejects_unbalanced () =
  check_rejected ~at:"traceEvents[1]: E"
    (trace_body [ event ~name:"a" ~ph:"B"; event ~name:"b" ~ph:"E" ])

(* Each of these holds lines that read like well-formed events. *)
let test_validate_rejects_truncated () =
  let body = trace_body [ event ~name:"a" ~ph:"B"; event ~name:"a" ~ph:"E" ] in
  check_rejected ~at:"byte "
    (String.sub body 0 (String.rindex body ']'))

let test_validate_reads_escaped_names () =
  check_rejected ~at:"traceEvents[1]: E"
    (trace_body [ event ~name:{|x\"y|} ~ph:"B"; event ~name:{|x\"z|} ~ph:"E" ])

let test_validate_rejects_non_json () =
  check_rejected ~at:"byte 0:" "counters follow\n\"ph\":\"C\"\n"

(* Span args survive export and parsing byte for byte. *)
let test_escaped_args_round_trip () =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let nasty = "q\"uo\"te \\ back\\slash\n\t\r\001\031 end" in
  Trace.set_output (Some path);
  Trace.with_span ~name:"round\"trip" ~args:[ ("note", nasty) ] (fun () -> ());
  ignore (Trace.flush ());
  (match Trace.validate_file path with
  | Error m -> Alcotest.fail m
  | Ok v -> check_int "one span" 1 v.Trace.v_spans);
  match events_named "round\"trip" ~ph:"B" (trace_events path) with
  | [ ev ] ->
    Alcotest.(check (option string)) "arg round-trips" (Some nasty)
      (arg "note" ev)
  | evs -> Alcotest.failf "%d opens of the span" (List.length evs)

let test_parse_spec () =
  Alcotest.(check (option string)) "off" None (Trace.parse_spec "off");
  Alcotest.(check (option string)) "zero" None (Trace.parse_spec "0");
  Alcotest.(check (option string)) "empty" None (Trace.parse_spec "");
  Alcotest.(check (option string))
    "path" (Some "out.json") (Trace.parse_spec "out.json")

(* ---------- counter registry ---------- *)

(* Counters bumped from worker domains must accumulate into the one
   registry and agree with the optimiser's own result records, summed over
   a sweep whose kernels compile on several domains. *)
let test_counter_merge_under_jobs4 () =
  Trace.Counter.reset_all ();
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 }
  in
  let lock = Mutex.create () in
  let runs = ref [] in
  let recording =
    { Pipeline.Methods.name = "Gensor";
      compile =
        (fun ~hw op ->
          let r = Gensor.Optimizer.optimize ~config ~hw (Ops.Op.compute op) in
          Mutex.protect lock (fun () ->
              runs := ((Domain.self () :> int), r) :: !runs);
          { Pipeline.Methods.etir = r.Gensor.Optimizer.etir;
            metrics = r.Gensor.Optimizer.metrics;
            analysis_steps = 0;
            tree_steps = 0;
            measure_trials = 0;
            wall_s = r.Gensor.Optimizer.wall_time_s }) }
  in
  ignore
    (Pipeline.Methods.sweep ~jobs:4 ~devices:[ hw ]
       ~methods:[ meeting ~lanes:2 recording ] (sweep_ops ()));
  let runs = !runs in
  check_int "one run per kernel"
    (List.length (sweep_ops ())) (List.length runs);
  check_bool "runs on two domains" true
    (List.length (List.sort_uniq compare (List.map fst runs)) >= 2);
  let total f = Some (List.fold_left (fun acc (_, r) -> acc + f r) 0 runs) in
  Alcotest.(check (option int))
    "states_explored" (total (fun r -> r.Gensor.Optimizer.states_explored))
    (Trace.Counter.find "optimizer.states_explored");
  Alcotest.(check (option int))
    "candidates_evaluated"
    (total (fun r -> r.Gensor.Optimizer.candidates_evaluated))
    (Trace.Counter.find "optimizer.candidates_evaluated");
  Alcotest.(check (option int))
    "candidates_pruned" (total (fun r -> r.Gensor.Optimizer.candidates_pruned))
    (Trace.Counter.find "optimizer.candidates_pruned");
  Alcotest.(check (option int))
    "restarts" (total (fun _ -> 4)) (Trace.Counter.find "optimizer.restarts");
  (* Worker-domain increments landed: the chains build delta components. *)
  check_bool "delta builds counted" true
    (Option.value ~default:0 (Trace.Counter.find "delta.full_builds") > 0);
  (* The absorbed ad-hoc stats are all readable from the one registry. *)
  let snap = Trace.Counter.snapshot () in
  List.iter
    (fun name ->
      check_bool (name ^ " in registry") true (List.mem_assoc name snap))
    [ "delta.full_builds"; "delta.levels_reused"; "delta.incremental_builds";
      "optimizer.candidates_pruned" ];
  (* Deterministic order for exporters. *)
  Alcotest.(check (list string))
    "snapshot sorted" (List.sort compare (List.map fst snap))
    (List.map fst snap)

let test_counter_basics () =
  let c = Trace.Counter.make "test.basic" in
  check_bool "make is idempotent" true (c == Trace.Counter.make "test.basic");
  Trace.Counter.set c 0;
  Trace.Counter.incr c;
  Trace.Counter.add c 4;
  check_int "incr/add" 5 (Trace.Counter.get c);
  Alcotest.(check (option int)) "find" (Some 5) (Trace.Counter.find "test.basic")

(* ---------- transparency ---------- *)

(* Tracing must be observation only: for any seed, the schedule chosen with
   a trace recording is bit-identical to the one chosen with tracing off. *)
let test_tracing_transparent =
  QCheck.Test.make ~count:5 ~name:"tracing on vs off, identical schedule"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let config =
        { Gensor.Optimizer.default_config with
          Gensor.Optimizer.seed; restarts = 2 }
      in
      let op = gemm ~m:64 ~n:64 ~k:64 () in
      Trace.set_output None;
      let off = Gensor.Optimizer.optimize ~config ~hw op in
      let path = temp_trace () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Trace.set_output (Some path);
          let on = Gensor.Optimizer.optimize ~config ~hw op in
          ignore (Trace.flush ());
          Etir.signature off.Gensor.Optimizer.etir
          = Etir.signature on.Gensor.Optimizer.etir
          && off.Gensor.Optimizer.metrics = on.Gensor.Optimizer.metrics))

let () =
  Alcotest.run "trace"
    [
      ( "env",
        [
          Alcotest.test_case "bool spellings" `Quick test_env_bool_spellings;
          Alcotest.test_case "bool garbage warns once" `Quick
            test_env_bool_garbage_warns_once;
          Alcotest.test_case "int parse and clamp" `Quick
            test_env_int_parse_and_clamp;
          Alcotest.test_case "GENSOR_JOBS validation" `Quick
            test_pool_jobs_env_validation;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick
            test_span_nesting_well_formed;
          Alcotest.test_case "minor words per span" `Quick
            test_span_minor_words;
          Alcotest.test_case "unbalanced rejected" `Quick
            test_validate_rejects_unbalanced;
          Alcotest.test_case "truncated rejected" `Quick
            test_validate_rejects_truncated;
          Alcotest.test_case "escaped names compared whole" `Quick
            test_validate_reads_escaped_names;
          Alcotest.test_case "non-JSON rejected" `Quick
            test_validate_rejects_non_json;
          Alcotest.test_case "escaped args round-trip" `Quick
            test_escaped_args_round_trip;
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "merge under jobs=4" `Quick
            test_counter_merge_under_jobs4;
        ] );
      ( "transparency",
        [ QCheck_alcotest.to_alcotest test_tracing_transparent ] );
    ]
