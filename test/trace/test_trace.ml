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

(* Every E must close the B on top of its lane's stack, even though the
   traced workload fans over worker domains and polish/prune/score spans
   nest inside optimize. *)
let test_span_nesting_well_formed () =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.set_output (Some path);
  check_bool "tracing enabled" true (Trace.enabled ());
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 2 }
  in
  ignore (Gensor.Optimizer.optimize ~config ~jobs:2 ~hw (gemm ()));
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
    let ic = open_in path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let contains sub =
      let n = String.length body and m = String.length sub in
      let rec go i = i + m <= n && (String.sub body i m = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun name ->
        check_bool (name ^ " span present") true
          (contains (Fmt.str "\"name\":%S" name)))
      [ "optimizer.optimize"; "optimizer.chains"; "anneal.run";
        "polish.greedy"; "pool.map" ]

let test_validate_rejects_unbalanced () =
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc "{ \"traceEvents\": [\n";
  output_string oc
    "{\"name\":\"a\",\"cat\":\"gensor\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":0},\n";
  output_string oc
    "{\"name\":\"b\",\"cat\":\"gensor\",\"ph\":\"E\",\"ts\":2.0,\"pid\":1,\"tid\":0}\n";
  output_string oc "], \"displayTimeUnit\": \"ms\" }\n";
  close_out oc;
  match Trace.validate_file path with
  | Ok _ -> Alcotest.fail "mismatched E accepted"
  | Error _ -> ()

let test_parse_spec () =
  Alcotest.(check (option string)) "off" None (Trace.parse_spec "off");
  Alcotest.(check (option string)) "zero" None (Trace.parse_spec "0");
  Alcotest.(check (option string)) "empty" None (Trace.parse_spec "");
  Alcotest.(check (option string))
    "path" (Some "out.json") (Trace.parse_spec "out.json")

(* ---------- counter registry ---------- *)

(* Counters bumped from worker domains must accumulate into the one
   registry and agree with the optimiser's own result record. *)
let test_counter_merge_under_jobs4 () =
  Trace.Counter.reset_all ();
  let config =
    { Gensor.Optimizer.default_config with Gensor.Optimizer.restarts = 4 }
  in
  let r = Gensor.Optimizer.optimize ~config ~jobs:4 ~hw (gemm ()) in
  Alcotest.(check (option int))
    "states_explored" (Some r.Gensor.Optimizer.states_explored)
    (Trace.Counter.find "optimizer.states_explored");
  Alcotest.(check (option int))
    "candidates_evaluated" (Some r.Gensor.Optimizer.candidates_evaluated)
    (Trace.Counter.find "optimizer.candidates_evaluated");
  Alcotest.(check (option int))
    "candidates_pruned" (Some r.Gensor.Optimizer.candidates_pruned)
    (Trace.Counter.find "optimizer.candidates_pruned");
  Alcotest.(check (option int))
    "restarts" (Some 4) (Trace.Counter.find "optimizer.restarts");
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
      let off = Gensor.Optimizer.optimize ~config ~jobs:2 ~hw op in
      let path = temp_trace () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Trace.set_output (Some path);
          let on = Gensor.Optimizer.optimize ~config ~jobs:2 ~hw op in
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
          Alcotest.test_case "unbalanced rejected" `Quick
            test_validate_rejects_unbalanced;
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
