open Sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_ranges () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f;
    let n = Rng.int rng 17 in
    if n < 0 || n >= 17 then Alcotest.failf "int out of range: %d" n
  done;
  Alcotest.check_raises "int bound 0 rejected"
    (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_roulette_proportions () =
  let rng = Rng.create ~seed:11 in
  let counts = Array.make 3 0 in
  let trials = 60_000 in
  for _ = 1 to trials do
    let idx = Rng.roulette rng [| 0.6; 0.3; 0.1 |] in
    counts.(idx) <- counts.(idx) + 1
  done;
  let share i = float_of_int counts.(i) /. float_of_int trials in
  List.iteri
    (fun i expected ->
      if Float.abs (share i -. expected) > 0.02 then
        Alcotest.failf "index %d share %.3f, expected %.3f" i (share i) expected)
    [ 0.6; 0.3; 0.1 ]

let test_rng_roulette_degenerate () =
  let rng = Rng.create ~seed:5 in
  (* All-zero weights fall back to uniform: every index must be hit. *)
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Rng.roulette rng [| 0.; 0.; 0.; 0. |]) <- true
  done;
  check_bool "uniform fallback covers all" true (Array.for_all Fun.id seen);
  Alcotest.check_raises "negative weight rejected"
    (Invalid_argument "Rng.roulette: negative or NaN weight") (fun () ->
      ignore (Rng.roulette rng [| 0.5; -0.1 |]))

let test_rng_split_diverges () =
  let parent = Rng.create ~seed:1 in
  let a = Rng.split parent and b = Rng.split parent in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  check_bool "split streams differ" true !differs

(* ---------- Etir ---------- *)

let gemm_etir ?(m = 64) ?(n = 48) ?(k = 32) () =
  Etir.create (Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k ()))

let test_etir_initial () =
  let e = gemm_etir () in
  check_int "levels" 2 (Etir.num_levels e);
  check_int "starts at outermost level" 2 (Etir.cur_level e);
  check_int "spatial dims" 2 (Etir.num_spatial e);
  check_int "reduce dims" 1 (Etir.num_reduce e);
  check_bool "initial state validates" true (Result.is_ok (Etir.validate e));
  check_int "one thread" 1 (Etir.threads_per_block e);
  check_int "grid covers every element" (64 * 48) (Etir.grid_blocks e)

let test_etir_derived () =
  let e = gemm_etir () in
  let e = Etir.with_stile e ~level:1 ~dim:0 16 in
  let e = Etir.with_stile e ~level:1 ~dim:1 8 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  check_int "threads dim 0" 4 (Etir.physical_threads_dim e 0);
  check_int "threads dim 1" 8 (Etir.physical_threads_dim e 1);
  check_int "threads per block" 32 (Etir.threads_per_block e);
  check_int "grid" (4 * 6) (Etir.grid_blocks e);
  let e = Etir.with_vthread e ~dim:0 2 in
  check_int "vthreads multiply logical units" (4 * 2)
    (Etir.logical_threads_dim e 0);
  check_int "physical unchanged by vthread" 32 (Etir.threads_per_block e)

let test_etir_eff_tiles () =
  let e = gemm_etir () in
  (* A raw inner tile larger than the outer one widens the effective outer
     tile. *)
  let e = Etir.with_stile e ~level:0 ~dim:0 8 in
  check_int "eff level1 covers level0" 8 (Etir.stile_eff e ~level:1 ~dim:0);
  check_int "raw level1 unchanged" 1 (Etir.stile e ~level:1 ~dim:0);
  let e = Etir.with_stile e ~level:1 ~dim:0 16 in
  check_int "eff takes the max" 16 (Etir.stile_eff e ~level:2 ~dim:0)

(* Tile updates copy only the edited row and share the others, so every
   earlier state along a chain must read exactly as before. *)
let test_etir_updates_persistent () =
  let e0 = gemm_etir () in
  let e1 = Etir.with_stile e0 ~level:1 ~dim:0 16 in
  let e2 = Etir.with_rtile e1 ~level:0 ~dim:0 4 in
  let e3 = Etir.with_stile e2 ~level:1 ~dim:1 8 in
  for level = 0 to Etir.num_levels e0 do
    for dim = 0 to 1 do
      check_int "parent spatial tile" 1 (Etir.stile e0 ~level ~dim)
    done;
    check_int "parent reduce tile" 1 (Etir.rtile e1 ~level ~dim:0)
  done;
  check_int "edit kept" 16 (Etir.stile e1 ~level:1 ~dim:0);
  check_int "sibling dim untouched" 1 (Etir.stile e2 ~level:1 ~dim:1);
  check_int "earlier edit carried" 16 (Etir.stile e3 ~level:1 ~dim:0);
  check_int "same-row edit" 8 (Etir.stile e3 ~level:1 ~dim:1);
  check_int "reduce edit carried" 4 (Etir.rtile e3 ~level:0 ~dim:0)

let test_etir_retarget () =
  let e = gemm_etir ~m:64 ~n:48 ~k:32 () in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:0 ~dim:0 8 in
  let e = Etir.with_vthread e ~dim:0 4 in
  let small = Ops.Op.compute (Ops.Matmul.gemm ~m:4 ~n:48 ~k:32 ()) in
  let r = Etir.retarget e small in
  check_int "tile clamped to new extent" 4 (Etir.stile r ~level:1 ~dim:0);
  check_int "vthread clamped to thread tile" 4 (Etir.vthread r ~dim:0);
  check_bool "retargeted state validates" true (Result.is_ok (Etir.validate r));
  let gemv = Ops.Op.compute (Ops.Matmul.gemv ~m:4 ~n:4 ()) in
  Alcotest.check_raises "structure mismatch rejected"
    (Invalid_argument "Etir.retarget: axis structure mismatch") (fun () ->
      ignore (Etir.retarget e gemv))

let test_etir_signature () =
  let a = gemm_etir () and b = gemm_etir () in
  check_bool "equal states share signatures" true (Etir.equal a b);
  let c = Etir.with_stile a ~level:0 ~dim:0 2 in
  check_bool "different tiles differ" false (Etir.equal a c)

(* ---------- fingerprint ---------- *)

let test_fingerprint_basic () =
  let e = gemm_etir () in
  let fp = Etir.fingerprint e in
  check_bool "never zero" true (fp <> 0L);
  Alcotest.(check int64) "stable across calls" fp (Etir.fingerprint e);
  Alcotest.(check int64) "equal rebuilds agree" fp
    (Etir.fingerprint (gemm_etir ()));
  (* The construction cursor is excluded: cache switches do not change the
     evaluation identity. *)
  let cached = Etir.with_cur_level e 0 in
  Alcotest.(check int64) "cur_level excluded" fp (Etir.fingerprint cached);
  check_bool "eval_equal across cur_level" true (Etir.eval_equal e cached);
  check_bool "but not structurally equal" false (Etir.equal e cached);
  (* Structural updates change it. *)
  let tiled = Etir.with_stile e ~level:0 ~dim:0 2 in
  check_bool "tile change changes fingerprint" true
    (Etir.fingerprint tiled <> fp);
  check_bool "tile change breaks eval_equal" false (Etir.eval_equal e tiled);
  let vthreaded = Etir.with_vthread tiled ~dim:0 2 in
  check_bool "vthread change changes fingerprint" true
    (Etir.fingerprint vthreaded <> Etir.fingerprint tiled);
  (* Different extents differ even with identical tiles. *)
  check_bool "extents feed the hash" true
    (Etir.fingerprint (gemm_etir ~m:65 ()) <> fp)

(* Property: along any random action walk, eval_equal and fingerprint stay
   mutually consistent, and only the Cache action preserves them. *)
let prop_fingerprint_consistent =
  QCheck.Test.make ~count:200 ~name:"fingerprint consistent with eval_equal"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 1 60)))
    (fun (seed, steps) ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ~m:33 ~n:17 ~k:29 ()) in
      let ok = ref true in
      for _ = 1 to steps do
        match Action.successors !e with
        | [] -> ()
        | succs ->
          let action, next = Rng.choice rng succs in
          let same_fp = Etir.fingerprint !e = Etir.fingerprint next in
          let same_eval = Etir.eval_equal !e next in
          (* eval_equal implies equal fingerprints... *)
          if same_eval && not same_fp then ok := false;
          (* ...and the cache action is exactly the eval-preserving one. *)
          (match action with
          | Action.Cache -> if not same_eval then ok := false
          | Action.Tile _ | Action.Rtile _ | Action.Set_vthread _ ->
            if same_eval then ok := false);
          e := next
      done;
      !ok)

(* ---------- Action ---------- *)

let test_action_grow_caps () =
  let e = gemm_etir ~m:6 ~n:4 ~k:4 () in
  (* Doubling caps at the extent: 1 -> 2 -> 4 -> 6 for extent 6. *)
  let grow e = Action.apply e (Action.Tile { level = 1; dim = 0; dir = Action.Grow }) in
  let e1 = Option.get (grow e) in
  let e2 = Option.get (grow e1) in
  let e3 = Option.get (grow e2) in
  check_int "capped at extent" 6 (Etir.stile e3 ~level:1 ~dim:0);
  check_bool "no growth past the extent" true (grow e3 = None)

let test_action_shrink_floor () =
  let e = gemm_etir () in
  check_bool "cannot shrink below 1" true
    (Action.apply e (Action.Tile { level = 1; dim = 0; dir = Action.Shrink })
    = None);
  (* vthreads pin the level-0 tile. *)
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_vthread e ~dim:0 4 in
  check_bool "shrink below vthread stripe rejected" true
    (Action.apply e (Action.Tile { level = 0; dim = 0; dir = Action.Shrink })
    = None)

let test_action_cache () =
  let e = gemm_etir () in
  let e1 = Option.get (Action.apply e Action.Cache) in
  check_int "level decremented" 1 (Etir.cur_level e1);
  let e0 = Option.get (Action.apply e1 Action.Cache) in
  check_bool "no cache below registers" true (Action.apply e0 Action.Cache = None)

let test_action_vthread_legality () =
  let e = gemm_etir () in
  check_bool "vthread needs a wide thread tile" true
    (Action.apply e (Action.Set_vthread { dim = 0; dir = Action.Grow }) = None);
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e1 =
    Option.get (Action.apply e (Action.Set_vthread { dim = 0; dir = Action.Grow }))
  in
  check_int "vthread doubled" 2 (Etir.vthread e1 ~dim:0)

let test_action_successors_validate () =
  let e = gemm_etir () in
  List.iter
    (fun (action, next) ->
      match Etir.validate next with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "successor of %s invalid: %s" (Action.to_string action)
          msg)
    (Action.successors e)

(* Property: any random sequence of legal actions preserves the structural
   invariants; shrink-after-grow returns to the previous tile size. *)
let prop_random_walk_valid =
  QCheck.Test.make ~count:200 ~name:"random action walks stay valid"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 1 60)))
    (fun (seed, steps) ->
      let rng = Rng.create ~seed in
      let e = ref (gemm_etir ~m:33 ~n:17 ~k:29 ()) in
      for _ = 1 to steps do
        match Action.successors !e with
        | [] -> ()
        | succs ->
          let _, next = Rng.choice rng succs in
          e := next
      done;
      Result.is_ok (Etir.validate !e))

let prop_grow_shrink_inverse =
  QCheck.Test.make ~count:200 ~name:"shrink inverts grow"
    QCheck.(make Gen.(pair (int_range 0 2) (int_range 0 1)))
    (fun (level, dim) ->
      let e = gemm_etir () in
      match Action.apply e (Action.Tile { level; dim; dir = Action.Grow }) with
      | None -> true
      | Some grown -> (
        match
          Action.apply grown (Action.Tile { level; dim; dir = Action.Shrink })
        with
        | Some back -> Etir.equal e back
        | None -> false))

(* The cached effective-tile table is the max-of-raw definition after any
   sequence of functional updates, and deriving a state never disturbs its
   parent's table (rows are shared, never mutated).  Computes: a GEMM and a
   conv (four spatial dims, three reduce dims); retargets move between
   extents of the same structure. *)
let prop_eff_table_matches_raw =
  let computes =
    [| (fun s -> Ops.Op.compute (Ops.Matmul.gemm ~m:s ~n:(2 * s) ~k:64 ()));
       (fun s ->
         Ops.Op.compute
           (Ops.Conv.conv2d ~batch:1 ~in_channels:8 ~out_channels:s
              ~height:16 ~width:16 ~kernel:3 ~stride:1 ())) |]
  in
  let eff_of_raw e =
    let levels = Etir.num_levels e + 1 in
    let max_raw raw ~level =
      let m = ref (raw 0) in
      for l = 1 to level do
        m := max !m (raw l)
      done;
      !m
    in
    List.init levels (fun level ->
        List.init (Etir.num_spatial e) (fun dim ->
            max_raw (fun l -> Etir.stile e ~level:l ~dim) ~level)
        @ List.init (Etir.num_reduce e) (fun dim ->
              max_raw (fun l -> Etir.rtile e ~level:l ~dim) ~level))
  in
  let cached e =
    List.init (Etir.num_levels e + 1) (fun level ->
        List.init (Etir.num_spatial e) (fun dim ->
            Etir.stile_eff e ~level ~dim)
        @ List.init (Etir.num_reduce e) (fun dim ->
              Etir.rtile_eff e ~level ~dim))
  in
  let rows e =
    List.init (Etir.num_levels e + 1) (fun level ->
        Array.to_list (Etir.eff_row e ~level))
  in
  QCheck.Test.make ~count:200 ~name:"effective-tile table = max of raw tiles"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let make = computes.(seed mod 2) in
      let e = ref (Etir.create (make 32)) in
      let ok = ref true in
      for _ = 1 to 40 do
        let parent = !e in
        let before = cached parent in
        let level = Rng.int rng (Etir.num_levels parent + 1) in
        let size ext = 1 + Rng.int rng ext in
        let child =
          match Rng.int rng 5 with
          | 0 | 1 ->
            let dim = Rng.int rng (Etir.num_spatial parent) in
            Etir.with_stile parent ~level ~dim
              (size (Etir.spatial_extents parent).(dim))
          | 2 ->
            let dim = Rng.int rng (Etir.num_reduce parent) in
            Etir.with_rtile parent ~level ~dim
              (size (Etir.reduce_extents parent).(dim))
          | 3 ->
            let dim = Rng.int rng (Etir.num_spatial parent) in
            Etir.with_vthread parent ~dim
              (size (Etir.stile parent ~level:0 ~dim))
          | _ -> Etir.retarget parent (make (8 * (1 + Rng.int rng 8)))
        in
        if
          cached child <> eff_of_raw child
          || rows child <> cached child
          || cached parent <> before
          || before <> eff_of_raw parent
        then ok := false;
        e := child
      done;
      !ok)

let () =
  Alcotest.run "sched"
    [ ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "ranges" `Quick test_rng_ranges;
         Alcotest.test_case "roulette proportions" `Quick
           test_rng_roulette_proportions;
         Alcotest.test_case "roulette degenerate cases" `Quick
           test_rng_roulette_degenerate;
         Alcotest.test_case "split diverges" `Quick test_rng_split_diverges ]);
      ("etir",
       [ Alcotest.test_case "initial state" `Quick test_etir_initial;
         Alcotest.test_case "derived quantities" `Quick test_etir_derived;
         Alcotest.test_case "effective tiles" `Quick test_etir_eff_tiles;
         Alcotest.test_case "updates are persistent" `Quick
           test_etir_updates_persistent;
         Alcotest.test_case "retarget" `Quick test_etir_retarget;
         Alcotest.test_case "signatures" `Quick test_etir_signature;
         Alcotest.test_case "fingerprint" `Quick test_fingerprint_basic;
         QCheck_alcotest.to_alcotest prop_fingerprint_consistent;
         QCheck_alcotest.to_alcotest prop_eff_table_matches_raw ]);
      ("action",
       [ Alcotest.test_case "grow caps at extent" `Quick test_action_grow_caps;
         Alcotest.test_case "shrink floors" `Quick test_action_shrink_floor;
         Alcotest.test_case "cache switch" `Quick test_action_cache;
         Alcotest.test_case "vthread legality" `Quick
           test_action_vthread_legality;
         Alcotest.test_case "successors validate" `Quick
           test_action_successors_validate;
         QCheck_alcotest.to_alcotest prop_random_walk_valid;
         QCheck_alcotest.to_alcotest prop_grow_shrink_inverse ]) ]
