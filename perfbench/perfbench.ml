(* The benchmark program: one workload, one process, a closed loop at jobs=1.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Run it through perfbench/run.py, which builds it and pins every GENSOR_*
   knob.  Set-up runs at least three times and reports its fastest.  One
   warm-up op is discarded, then ops run back to back for S seconds, each
   checked for correct output and for the same deterministic facts as the
   first op.  Every op is split into steps at the library calls it makes
   (see Layer).  With --trace 0 the last stdout line is a JSON object of
   end-to-end metrics; with --trace 1 every other op also records its
   Trace.Counter deltas and the object holds the per-layer metrics
   instead.  Human-readable detail goes to stderr. *)

let workloads =
  [ ("compile-cold", Compile_cold.setup);
    ("serve-warm", Serve_warm.setup);
    ("cpu-exec", Cpu_exec.setup) ]

(* Set-up repeats until both bounds are met; setup_s is the fastest, for
   the same reason as the latency floor (see [floors]). *)
let setup_min_repeats = 3
let setup_min_s = 0.5

let min_ops = 4
let max_loop_s = 120.0

let minimum = List.fold_left Float.min Float.infinity

let die fmt = Fmt.kstr (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* One measured op. *)
type sample = {
  latency_s : float;
  steps : (string * float) array;  (* Layer steps in order, seconds *)
  traced : bool;
  notes : (string * float) list;  (* Layer notes, traced ops only *)
  counters : (string * int) list;  (* Trace.Counter deltas, traced ops only *)
}

let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt name before) in
      if d = 0 then None else Some (name, d))
    after

(* The facts the determinism self-check compares between ops, including
   the op's step sequence. *)
let fingerprint (o : Common.outcome) steps counters =
  let pairs = Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int)) in
  Fmt.str "sim_ms=%h steps=%s %a %a" o.Common.sim_ms
    (Digest.to_hex
       (Digest.string (String.concat "," (Array.to_list (Array.map fst steps)))))
    pairs o.Common.facts pairs counters

let run_setup ~setup ~seed ~work =
  let rec go i times last =
    let total = List.fold_left ( +. ) 0.0 times in
    if i >= setup_min_repeats && total >= setup_min_s then
      (Option.get last, minimum times)
    else begin
      let dir = Filename.concat work (Printf.sprintf "setup-%d" i) in
      if i > 0 then
        Common.remove_tree
          (Filename.concat work (Printf.sprintf "setup-%d" (i - 1)));
      Gc.full_major ();
      let t0 = Sample.now () in
      let inst = setup ~seed ~dir in
      go (i + 1) ((Sample.now () -. t0) :: times) (Some inst)
    end
  in
  go 0 [] None

let run_loop ~seconds ~trace (inst : Common.instance) =
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let reference = ref None and traced_reference = ref None in
  let run_op ~measured ~traced =
    Layer.start ();
    Layer.enabled := traced;
    let before = ref [] in
    let t0 = Sample.now () in
    let outcome =
      try
        inst.Common.reset ();
        if traced then before := Trace.Counter.snapshot ();
        inst.Common.op ()
      with e ->
        { Common.failures = [ "exception: " ^ Printexc.to_string e ];
          sim_ms = Float.nan; facts = [] }
    in
    let counters =
      if traced then counter_delta !before (Trace.Counter.snapshot ()) else []
    in
    let t1 = Sample.now () in
    Layer.enabled := false;
    let steps = Layer.steps ~t0 ~t1 in
    let notes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layer.notes [] in
    inst.Common.tidy ();
    incr attempted;
    (* Every op must reproduce the first op's facts and steps, and every
       traced op the first traced op's counters: a drifting search or cache
       makes the timings incomparable. *)
    let check slot fp =
      match !slot with
      | None -> slot := Some fp; []
      | Some fp0 when String.equal fp0 fp -> []
      | Some fp0 -> [ Fmt.str "nondeterministic op: %s, first op: %s" fp fp0 ]
    in
    let fp = fingerprint outcome steps [] in
    let drift =
      check reference fp
      @
      if traced then
        check traced_reference (fingerprint outcome steps counters)
      else []
    in
    (match outcome.Common.failures @ drift with
    | [] -> ()
    | errs ->
      incr failed;
      if !failed <= 5 then
        List.iter (fun e -> prerr_endline ("perfbench: op failed: " ^ e)) errs);
    if measured then
      samples :=
        { latency_s = t1 -. t0; steps; traced; notes; counters } :: !samples;
    (outcome, fp)
  in
  (* The warm-up op is checked but not timed. *)
  let first, fp = run_op ~measured:false ~traced:false in
  Printf.eprintf "perfbench: first op %s\n%!" fp;
  let start = Sample.now () in
  let n = ref 0 in
  while
    let elapsed = Sample.now () -. start in
    (elapsed < seconds || !n < min_ops) && elapsed < max_loop_s
  do
    Gc.full_major ();
    ignore (run_op ~measured:true ~traced:(trace && !n mod 2 = 0)
            : Common.outcome * string);
    incr n
  done;
  (first, List.rev !samples, !attempted, !failed)

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms s = s *. 1e3
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Each step's fastest time across the ops, in step order.  On a shared
   host a neighbour slows stretches of a run by up to ~2x, for seconds at
   a time, which moves an op's median and tail with it; a step is short
   enough that some op runs it in a quiet moment.  Ops whose steps differ
   from the first op's have already failed the self-check. *)
let floors samples =
  match samples with
  | [] -> [||]
  | s0 :: _ ->
    let same =
      List.filter
        (fun s -> Array.length s.steps = Array.length s0.steps)
        samples
    in
    Array.mapi
      (fun j (name, _) ->
        (name, minimum (List.map (fun s -> snd s.steps.(j)) same)))
      s0.steps

let total steps = Array.fold_left (fun acc (_, d) -> acc +. d) 0.0 steps

let end_to_end ~setup_s ~(first : Common.outcome) samples =
  let lat = List.map (fun s -> s.latency_s) samples in
  let n = List.length lat in
  Printf.eprintf "perfbench: %d measured ops; op latency min %.3f ms, p50 %.3f ms"
    n (ms (minimum lat)) (ms (Sample.median lat));
  if n >= 11 then begin
    let tail, pct = Sample.tail lat in
    Printf.eprintf ", tail p%.1f %.3f ms (10 ops beyond)" pct (ms tail)
  end;
  prerr_newline ();
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  [ m "setup_s" "s" setup_s;
    m "latency_floor_ms" "ms" (ms (total (floors samples)));
    m "sim_latency_ms" "ms" first.Common.sim_ms;
    m "peak_heap_mb" "MB" peak_mb ]

(* Layer times are the summed floors of that layer's steps; counts and
   notes repeat exactly across traced ops (the self-check enforces it). *)
let per_layer samples =
  let traced = List.filter (fun s -> s.traced) samples in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let floor = floors samples in
  let time name =
    Array.fold_left
      (fun acc (n, d) -> if String.equal n name then acc +. d else acc)
      0.0 floor
  in
  let low f = minimum (List.map f traced) in
  let note name =
    low (fun s -> Option.value ~default:0.0 (List.assoc_opt name s.notes))
  in
  let count name =
    low (fun s ->
        float_of_int (Option.value ~default:0 (List.assoc_opt name s.counters)))
  in
  let hit_rate cache =
    let hits = count ("memo." ^ cache ^ ".hits") in
    ratio hits (hits +. count ("memo." ^ cache ^ ".misses"))
  in
  let traced_ms = ms (total (floors traced)) in
  let untraced_ms = ms (total (floors untraced)) in
  let reused = count "delta.levels_reused" in
  [ m "gensor.search_ms" "ms" (ms (time "gensor.search"));
    m "gensor.states_explored" "count" (count "optimizer.states_explored");
    m "gensor.states_per_s" "1/s"
      (ratio (count "optimizer.states_explored") (time "gensor.search"));
    m "costmodel.delta_incremental_builds" "count"
      (count "delta.incremental_builds");
    m "costmodel.levels_reused_ratio" "ratio"
      (ratio reused (reused +. count "delta.levels_recomputed"));
    m "parallel.memo_footprint_hit_rate" "ratio" (hit_rate "footprint");
    m "parallel.memo_footprint_evictions" "count"
      (count "memo.footprint.evictions");
    m "parallel.memo_transitions_hit_rate" "ratio" (hit_rate "transitions");
    m "verify.run_ms" "ms" (ms (time "verify.run"));
    m "verify.certify_ms" "ms" (ms (time "verify.certify"));
    m "codegen.emit_ms" "ms" (ms (time "codegen.emit"));
    m "artifact.put_ms" "ms" (ms (time "artifact.put"));
    m "dnn.fuse_ms" "ms" (ms (time "dnn.fuse"));
    m "dnn.memplan_ms" "ms" (ms (time "dnn.memplan"));
    m "artifact.open_ms" "ms" (ms (time "artifact.open"));
    m "artifact.records" "count" (note "artifact.records");
    m "artifact.bytes_per_record" "bytes"
      (ratio (note "artifact.bytes") (note "artifact.records"));
    m "dnn.run_graph_ms" "ms" (ms (time "dnn.run_graph"));
    m "dnn.kcache_create_ms" "ms" (ms (time "dnn.kcache_create"));
    m "dnn.dispatch_ms" "ms" (ms (time "dnn.dispatch"));
    m "dnn.cert_hit_ratio" "ratio"
      (ratio (note "dnn.cert_hits") (note "dnn.dispatches"));
    m "dnn.constructions" "count" (note "dnn.constructions");
    m "exec.compile_ms" "ms" (ms (time "exec.compile"));
    m "exec.run_ms" "ms" (ms (time "exec.run"));
    m "exec.points_per_s" "1/s"
      (ratio (count "exec.compiled.points") (time "exec.run"));
    m "exec.check_ms" "ms" (ms (time "exec.check"));
    m "trace.latency_floor_ms" "ms" traced_ms;
    m "trace.overhead_pct" "%" (100.0 *. ((traced_ms /. untraced_ms) -. 1.0)) ]

(* ---- output ---- *)

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.eprintf "  %-36s %16.6f %s\n" x.name x.value x.unit_)
    metrics;
  let metric_json x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
      (json_number x.value) x.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric_json metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None -> die "unknown workload %S" !workload
  in
  if !seed < 0 then die "--seed must be >= 0";
  if not (!seconds > 0.0) then die "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if Parallel.Pool.default_jobs () <> 1 then
    die "GENSOR_JOBS must be 1 (run through perfbench/run.py)";
  let root = ".perfbench_work" in
  let work = Filename.concat root (string_of_int (Unix.getpid ())) in
  Common.remove_tree work;
  Fun.protect
    ~finally:(fun () ->
      Common.remove_tree work;
      try Sys.rmdir root with Sys_error _ -> ())
  @@ fun () ->
  let inst, setup_s = run_setup ~setup ~seed:!seed ~work in
  let first, samples, attempted, failed =
    run_loop ~seconds:!seconds ~trace:(!trace = 1) inst
  in
  if !trace = 1 then begin
    (match List.find_opt (fun s -> s.traced) samples with
    | Some s ->
      prerr_endline "perfbench: Trace.Counter deltas of one traced op:";
      List.iter (fun (k, v) -> Printf.eprintf "  %-36s %d\n" k v) s.counters
    | None -> ());
    print_result ~attempted ~failed (per_layer samples)
  end
  else print_result ~attempted ~failed (end_to_end ~setup_s ~first samples)
