open Sched

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ---------- Tensor ---------- *)

let test_tensor_basics () =
  let t = Exec.Tensor.create [ 2; 3 ] in
  Exec.Tensor.set t [ 1; 2 ] 5.0;
  check_float "set/get" 5.0 (Exec.Tensor.get t [ 1; 2 ]);
  check_float "zero elsewhere" 0.0 (Exec.Tensor.get t [ 0; 0 ]);
  check_int "size" 6 (Exec.Tensor.size t);
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Tensor.offset: rank mismatch") (fun () ->
      ignore (Exec.Tensor.get t [ 1 ]));
  (try
     ignore (Exec.Tensor.get t [ 2; 0 ]);
     Alcotest.fail "out of bounds accepted"
   with Invalid_argument _ -> ())

let test_tensor_init () =
  let t = Exec.Tensor.init [ 3; 4 ] (fun coords ->
      match coords with [ i; j ] -> float_of_int ((i * 10) + j) | _ -> nan)
  in
  check_float "row-major init" 23.0 (Exec.Tensor.get t [ 2; 3 ]);
  check_float "origin" 0.0 (Exec.Tensor.get t [ 0; 0 ])

let test_tensor_pad () =
  let t = Exec.Tensor.init [ 1; 1; 2; 2 ] (fun _ -> 1.0) in
  let p = Exec.Tensor.pad_hw t ~pad:1 in
  Alcotest.(check (list int)) "padded shape" [ 1; 1; 4; 4 ] (Exec.Tensor.shape p);
  check_float "border zero" 0.0 (Exec.Tensor.get p [ 0; 0; 0; 0 ]);
  check_float "interior preserved" 1.0 (Exec.Tensor.get p [ 0; 0; 1; 1 ])

(* ---------- Reference ---------- *)

let test_reference_gemm () =
  let op = Ops.Matmul.gemm ~m:2 ~n:2 ~k:2 () in
  let compute = Ops.Op.compute op in
  let a = Exec.Tensor.init [ 2; 2 ] (fun c ->
      match c with [ i; k ] -> float_of_int ((i * 2) + k + 1) | _ -> nan)
  in
  let b = Exec.Tensor.init [ 2; 2 ] (fun c ->
      match c with [ k; j ] -> float_of_int ((k * 2) + j + 5) | _ -> nan)
  in
  let points () =
    Option.value ~default:0 (Trace.Counter.find "exec.reference.points")
  in
  let before = points () in
  let out = Exec.Reference.run compute [ ("A", a); ("B", b) ] in
  check_int "exec.reference.points counts the domain" 8 (points () - before);
  (* [[1 2];[3 4]] x [[5 6];[7 8]] = [[19 22];[43 50]] *)
  check_float "c00" 19.0 (Exec.Tensor.get out [ 0; 0 ]);
  check_float "c01" 22.0 (Exec.Tensor.get out [ 0; 1 ]);
  check_float "c10" 43.0 (Exec.Tensor.get out [ 1; 0 ]);
  check_float "c11" 50.0 (Exec.Tensor.get out [ 1; 1 ])

let test_reference_avgpool_scale () =
  let op =
    Ops.Pool.avgpool2d ~batch:1 ~channels:1 ~height:2 ~width:2 ~window:2
      ~stride:2 ()
  in
  let inputs =
    [ ("I", Exec.Tensor.init [ 1; 1; 2; 2 ] (fun c ->
          match c with [ _; _; y; x ] -> float_of_int ((y * 2) + x) | _ -> nan))
    ]
  in
  let out = Exec.Reference.run (Ops.Op.compute op) inputs in
  check_float "mean of 0..3" 1.5 (Exec.Tensor.get out [ 0; 0; 0; 0 ])

let test_reference_maxpool () =
  let op =
    Ops.Pool.maxpool2d ~batch:1 ~channels:1 ~height:2 ~width:2 ~window:2
      ~stride:2 ()
  in
  let inputs =
    [ ("I", Exec.Tensor.init [ 1; 1; 2; 2 ] (fun c ->
          match c with [ _; _; y; x ] -> float_of_int ((y * 2) + x) | _ -> nan))
    ]
  in
  let out = Exec.Reference.run (Ops.Op.compute op) inputs in
  check_float "max of 0..3" 3.0 (Exec.Tensor.get out [ 0; 0; 0; 0 ])

let test_reference_missing_input () =
  let compute = Ops.Op.compute (Ops.Matmul.gemv ~m:2 ~n:2 ()) in
  Alcotest.check_raises "missing input"
    (Invalid_argument "Reference: missing input A") (fun () ->
      ignore (Exec.Reference.run compute []))

let test_reference_shape_mismatch () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:2 ~n:3 ~k:4 ()) in
  let inputs =
    [ ("A", Exec.Tensor.create [ 4; 2 ]); ("B", Exec.Tensor.create [ 4; 3 ]) ]
  in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Reference: input A has shape [4;2], declared [2;4]")
    (fun () -> ignore (Exec.Reference.run compute inputs))

(* The specification the staged reference must match bit for bit: every
   point evaluated by [Expr.eval] over a string-keyed environment, the
   spatial points in row-major order ([Tensor.init]), each element's reduce
   points in ascending lexicographic order, and the epilogue's read of the
   output tensor denoting the scaled accumulator. *)
let spec_run compute inputs =
  let open Tensor_lang in
  let spatial = Compute.spatial_axes compute in
  let reduce = Compute.reduce_axes compute in
  let points axes =
    List.fold_right
      (fun ax rest ->
        List.concat_map
          (fun v -> List.map (fun p -> v :: p) rest)
          (List.init (Axis.extent ax) Fun.id))
      axes [ [] ]
  in
  let env axes values v =
    List.assoc v (List.combine (List.map Axis.name axes) values)
  in
  let read t coords = Exec.Tensor.get (List.assoc t inputs) coords in
  Exec.Tensor.init (Compute.output_shape compute) (fun sp ->
      let acc =
        List.fold_left
          (fun acc rp ->
            let v =
              Expr.eval ~read ~env:(env (spatial @ reduce) (sp @ rp))
                (Compute.body compute)
            in
            match Compute.combine compute with
            | Compute.Sum -> acc +. v
            | Compute.Max_combine -> Float.max acc v)
          (Compute.init compute) (points reduce)
      in
      let acc = acc *. Compute.scale compute in
      match Compute.epilogue compute with
      | None -> acc
      | Some e ->
        let read t coords =
          if t = Compute.out_name compute then acc else read t coords
        in
        Expr.eval ~read ~env:(env spatial sp) e)

(* A random compute: one or two spatial axes, up to two reduce axes, a body
   over fresh inputs read at index expressions built from every [Index]
   operator (divisors positive constants, differences clamped at 0, so
   each coordinate is non-negative and each input's shape is its interval
   bound), [Sum] or [Max_combine], and half the time an epilogue that
   reads the accumulator and further inputs at spatial coordinates. *)
let random_compute rng =
  let open Tensor_lang in
  let extent () = 1 + Rng.int rng 4 in
  let spatial =
    List.init (1 + Rng.int rng 2) (fun i ->
        Axis.spatial (Fmt.str "s%d" i) (extent ()))
  in
  let reduce =
    List.init (Rng.int rng 3) (fun i ->
        Axis.reduce (Fmt.str "r%d" i) (extent ()))
  in
  let const () = Index.Const (1 + Rng.int rng 3) in
  let rec index vars depth =
    if depth = 0 || Rng.int rng 3 = 0 then
      if Rng.int rng 4 = 0 then Index.Const (Rng.int rng 3)
      else Index.Var (Axis.name (Rng.choice rng vars))
    else
      let sub () = index vars (depth - 1) in
      match Rng.int rng 7 with
      | 0 -> Index.Add (sub (), sub ())
      | 1 -> Index.Mul (const (), sub ())
      | 2 -> Index.Div (sub (), const ())
      | 3 -> Index.Mod (sub (), const ())
      | 4 -> Index.Min (sub (), sub ())
      | 5 -> Index.Max (sub (), sub ())
      | _ -> Index.Max (Index.Sub (sub (), sub ()), Index.Const 0)
  in
  let inputs = ref [] in
  let fresh_read prefix vars =
    let indices = List.init (1 + Rng.int rng 3) (fun _ -> index vars 3) in
    let bound ax = Interval.v 0 (Axis.extent ax - 1) in
    let env v = bound (List.find (fun ax -> Axis.name ax = v) vars) in
    let shape =
      List.map (fun i -> Interval.hi (Interval.of_index ~env i) + 1) indices
    in
    let name = Fmt.str "%s%d" prefix (List.length !inputs) in
    inputs :=
      { Compute.in_name = name; in_shape = shape; in_dtype = Dtype.F32 }
      :: !inputs;
    Expr.read name indices
  in
  let rec expr leaf depth =
    if depth = 0 || Rng.int rng 4 = 0 then leaf ()
    else
      let a = expr leaf (depth - 1) and b = expr leaf (depth - 1) in
      match Rng.int rng 7 with
      | 0 -> Expr.neg a
      | 1 -> Expr.add a b
      | 2 -> Expr.sub a b
      | 3 -> Expr.mul a b
      | 4 -> Expr.div a b
      | 5 -> Expr.max_ a b
      | _ -> Expr.min_ a b
  in
  let imm () = Expr.imm (Rng.choice rng [ 0.0; -0.0; 0.5; -2.0 ]) in
  let body =
    expr
      (fun () ->
        if Rng.int rng 4 = 0 then imm () else fresh_read "T" (spatial @ reduce))
      3
  in
  let acc =
    Expr.read "C" (List.map (fun ax -> Index.var (Axis.name ax)) spatial)
  in
  let epilogue =
    if Rng.bool rng then None
    else
      let rest =
        expr
          (fun () ->
            match Rng.int rng 3 with
            | 0 -> acc
            | 1 -> imm ()
            | _ -> fresh_read "E" spatial)
          2
      in
      Some
        (Rng.choice rng
           [ Expr.add acc rest; Expr.max_ rest acc; Expr.mul acc rest ])
  in
  let combine, init =
    if Rng.bool rng then (Compute.Sum, 0.0)
    else (Compute.Max_combine, Float.neg_infinity)
  in
  Compute.v ~name:"random" ~axes:(spatial @ reduce) ~inputs:(List.rev !inputs)
    ~out_name:"C" ~init ~combine
    ~scale:(Rng.choice rng [ 1.0; 0.5; 1.0 /. 9.0 ])
    ?epilogue ~body ()

let prop_reference_matches_spec =
  QCheck.Test.make ~count:600 ~name:"staged reference = Expr.eval spec"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let compute = random_compute (Rng.create ~seed) in
      let inputs = Exec.Reference.random_inputs ~seed compute in
      match
        Exec.Tensor.first_bit_mismatch (spec_run compute inputs)
          (Exec.Reference.run compute inputs)
      with
      | None -> true
      | Some (at, e, g) ->
        QCheck.Test.fail_reportf "%a@.differs at [%a]: spec %h, staged %h"
          Tensor_lang.Compute.pp compute
          Fmt.(list ~sep:(any ",") int)
          at e g)

(* ---------- Tolerances and mismatch diagnostics ---------- *)

let test_mixed_tolerance () =
  let approx_equal ?atol ?rtol a b =
    Exec.Tensor.first_mismatch ?atol ?rtol a b = None
  in
  let pair a b =
    let ta = Exec.Tensor.create ~init:a [ 2 ] in
    let tb = Exec.Tensor.create ~init:b [ 2 ] in
    (ta, tb)
  in
  (* Large magnitudes: relative term absorbs what an absolute-only check
     would reject. *)
  let a, b = pair 1000.0 1000.05 in
  Alcotest.(check bool) "rel term covers large values" true
    (approx_equal a b);
  Alcotest.(check bool) "absolute-only check rejects it" false
    (approx_equal ~atol:1e-3 ~rtol:0.0 a b);
  (* Near zero: absolute term covers noise below atol. *)
  let a, b = pair 1e-9 0.0 in
  Alcotest.(check bool) "atol covers near-zero" true
    (approx_equal a b);
  (* Genuine divergence fails under the defaults but passes under the
     historical absolute-only criterion. *)
  let a, b = pair 1.0 1.001 in
  Alcotest.(check bool) "1e-3 rel error rejected" false
    (approx_equal a b);
  Alcotest.(check bool) "legacy absolute-only accepts it" true
    (approx_equal ~atol:1e-2 ~rtol:0.0 a b)

let test_first_mismatch () =
  let a = Exec.Tensor.init [ 2; 3 ] (fun _ -> 1.0) in
  let b = Exec.Tensor.init [ 2; 3 ] (fun _ -> 1.0) in
  Alcotest.(check bool) "equal tensors have no mismatch" true
    (Exec.Tensor.first_mismatch a b = None);
  Exec.Tensor.set b [ 1; 2 ] 2.0;
  Exec.Tensor.set b [ 1; 0 ] 3.0;
  (match Exec.Tensor.first_mismatch a b with
   | Some (coords, av, bv) ->
     Alcotest.(check (list int)) "row-major first offender" [ 1; 0 ] coords;
     check_float "lhs value" 1.0 av;
     check_float "rhs value" 3.0 bv
   | None -> Alcotest.fail "mismatch not detected")

(* Both compares against a per-element statement of their contract, on
   tensors drawn from values that stress it: signed zeros, NaN, infinities
   and pairs just inside and outside the default tolerance. *)
let prop_compares_match_spec =
  let values =
    [| 0.0; -0.0; 1.0; 1.00005; 1.001; -1.0; nan; infinity; neg_infinity;
       1e-9; 1000.0; 1000.05 |]
  in
  QCheck.Test.make ~count:300 ~name:"compares = per-element spec"
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 12)
            (pair (int_bound (Array.length values - 1))
               (int_bound (Array.length values - 1)))))
    (fun pairs ->
      let n = List.length pairs in
      let tensor pick =
        let t = Exec.Tensor.create [ n ] in
        List.iteri (fun i p -> Exec.Tensor.set t [ i ] values.(pick p)) pairs;
        t
      in
      let a = tensor fst and b = tensor snd in
      let spec differ =
        let rec go i = function
          | [] -> None
          | (x, y) :: rest ->
            let x = values.(x) and y = values.(y) in
            if differ x y then Some ([ i ], x, y) else go (i + 1) rest
        in
        go 0 pairs
      in
      let same_offender r s =
        match (r, s) with
        | None, None -> true
        | Some (c, x, y), Some (c', x', y') ->
          c = c'
          && Int64.bits_of_float x = Int64.bits_of_float x'
          && Int64.bits_of_float y = Int64.bits_of_float y'
        | _ -> false
      in
      same_offender
        (Exec.Tensor.first_mismatch a b)
        (spec (fun x y ->
             not
               (Float.abs (x -. y)
               <= 1e-6 +. (1e-4 *. Float.max (Float.abs x) (Float.abs y)))))
      && same_offender
           (Exec.Tensor.first_bit_mismatch a b)
           (spec (fun x y -> Int64.bits_of_float x <> Int64.bits_of_float y)))

let test_coverage_violation () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:3 ~n:4 ~k:2 ()) in
  let inputs = Exec.Reference.random_inputs compute in
  let result = Exec.Compiled.run (Etir.create compute) inputs in
  Alcotest.(check bool) "clean run is exact" true
    (Exec.Scheduled.coverage_exact result);
  Alcotest.(check bool) "clean run has no violation" true
    (Exec.Scheduled.coverage_violation result = None);
  Exec.Tensor.set result.Exec.Scheduled.coverage [ 1; 2 ] 2.0;
  (match Exec.Scheduled.coverage_violation result with
   | Some (coords, count) ->
     Alcotest.(check (list int)) "violating coordinate" [ 1; 2 ] coords;
     check_float "observed count" 2.0 count;
     let msg =
       Fmt.str "%a" Exec.Scheduled.pp_coverage_violation (coords, count)
     in
     Alcotest.(check bool) "message names the coordinate" true
       (contains msg "1,2")
   | None -> Alcotest.fail "violation not detected")

(* ---------- Compiled vs reference ---------- *)

let small_ops =
  [ ("gemm 13x9x11", fun () -> Ops.Matmul.gemm ~m:13 ~n:9 ~k:11 ());
    ("gemv 23x17", fun () -> Ops.Matmul.gemv ~m:23 ~n:17 ());
    ("bmm 3x6x5x4", fun () -> Ops.Matmul.batch_matmul ~batch:3 ~m:6 ~n:5 ~k:4 ());
    ("conv 2ch 7x7 s2",
     fun () ->
       Ops.Conv.conv2d ~batch:2 ~in_channels:2 ~out_channels:3 ~height:7
         ~width:7 ~kernel:3 ~stride:2 ());
    ("dwconv 3ch s1",
     fun () ->
       Ops.Conv.depthwise_conv2d ~batch:1 ~channels:3 ~height:6 ~width:6
         ~kernel:3 ~stride:1 ());
    ("avgpool", fun () ->
       Ops.Pool.avgpool2d ~batch:2 ~channels:3 ~height:6 ~width:6 ~window:2
         ~stride:2 ());
    ("maxpool", fun () ->
       Ops.Pool.maxpool2d ~batch:1 ~channels:2 ~height:9 ~width:9 ~window:3
         ~stride:3 ());
    ("relu", fun () -> Ops.Elementwise.relu ~shape:[ 3; 4; 5 ] ());
    ("bias_add", fun () -> Ops.Elementwise.bias_add ~shape:[ 2; 6; 3 ] ()) ]

(* A random ETIR for a compute definition, via a random legal-action walk. *)
let random_schedule rng compute ~steps =
  let e = ref (Etir.create compute) in
  for _ = 1 to steps do
    match Action.successors !e with
    | [] -> ()
    | succs -> e := snd (Rng.choice rng succs)
  done;
  !e

(* Differential check of one schedule: the VM must write every output
   element exactly once and reproduce the reference bit for bit — both
   reduce each element over its reduce points in ascending lexicographic
   order.  Failures name the schedule and the first offending
   coordinate. *)
let check_differential ?(tag = "") etir inputs expected =
  let result = Exec.Compiled.run etir inputs in
  (match Exec.Scheduled.coverage_violation result with
   | None -> ()
   | Some v ->
     Alcotest.failf "%s%s: coverage: %a" tag (Etir.signature etir)
       Exec.Scheduled.pp_coverage_violation v);
  match
    Exec.Tensor.first_bit_mismatch expected result.Exec.Scheduled.output
  with
  | None -> ()
  | Some (coords, e, g) ->
    Alcotest.failf "%s%s: diverges at [%a]: reference %h, compiled %h" tag
      (Etir.signature etir)
      Fmt.(list ~sep:(any ",") int)
      coords e g

let test_executors_match_reference () =
  let rng = Rng.create ~seed:99 in
  List.iter
    (fun (name, make_op) ->
      let compute = Ops.Op.compute (make_op ()) in
      let inputs = Exec.Reference.random_inputs compute in
      let expected = Exec.Reference.run compute inputs in
      for _ = 1 to 3 do
        let etir = random_schedule rng compute ~steps:25 in
        check_differential ~tag:(name ^ ": ") etir inputs expected
      done)
    small_ops

(* GEMM with a fused bias + ReLU epilogue: exercises the epilogue float
   program and the accumulator-shadowing read. *)
let gemm_bias_relu ~m ~n ~k =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; k ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ k; n ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "Bias"; in_shape = [ n ]; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A" [ Index.var "i"; Index.var "k" ])
      (Expr.read "B" [ Index.var "k"; Index.var "j" ])
  in
  let epilogue =
    Expr.max_
      (Expr.add
         (Expr.read "C" [ Index.var "i"; Index.var "j" ])
         (Expr.read "Bias" [ Index.var "j" ]))
      (Expr.imm 0.0)
  in
  Compute.v ~name:"gemm_bias_relu" ~axes ~inputs ~out_name:"C" ~epilogue ~body
    ()

(* out[i,j] = Σ_{c,k} A[i,c,k] * B[c,k,j]: both reduce axes step every
   site contiguously, so the compiled tier merges them into one run. *)
let gemm_two_reduce ~m ~n ~c ~k =
  let open Tensor_lang in
  let axes =
    [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "c" c;
      Axis.reduce "k" k ]
  in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; c; k ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ c; k; n ]; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A" [ Index.var "i"; Index.var "c"; Index.var "k" ])
      (Expr.read "B" [ Index.var "c"; Index.var "k"; Index.var "j" ])
  in
  Compute.v ~name:"gemm_two_reduce" ~axes ~inputs ~out_name:"C" ~body ()

(* out[i,j] = Σ_k A[i, k/2] * B[k mod 3, j]: non-affine accesses, so the
   compiled tier re-derives offsets per reduce point. *)
let gemm_div_mod ~m ~n ~k =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; (k + 1) / 2 ];
        in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ 3; n ]; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A"
         [ Index.var "i"; Index.div (Index.var "k") (Index.const 2) ])
      (Expr.read "B"
         [ Index.rem (Index.var "k") (Index.const 3); Index.var "j" ])
  in
  Compute.v ~name:"gemm_div_mod" ~axes ~inputs ~out_name:"C" ~body ()

(* out[i,j] = A[i,j] * B[i,j]: no reduce axes, a one-point multiply-
   accumulate per element. *)
let hadamard ~m ~n =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; n ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ m; n ]; in_dtype = Dtype.F32 } ]
  in
  let ij = [ Index.var "i"; Index.var "j" ] in
  let body = Expr.mul (Expr.read "A" ij) (Expr.read "B" ij) in
  Compute.v ~name:"hadamard" ~axes ~inputs ~out_name:"C" ~body ()

(* GEMM whose epilogue runs every float opcode over a residual and a
   per-column divisor: max (min ((-(C - R[i,j]) / (D[j] + 2)) * 1.5)
   0.5) (-0.5). *)
let gemm_epilogue_all_ops ~m ~n ~k =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; k ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ k; n ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "R"; in_shape = [ m; n ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "D"; in_shape = [ n ]; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A" [ Index.var "i"; Index.var "k" ])
      (Expr.read "B" [ Index.var "k"; Index.var "j" ])
  in
  let epilogue =
    Expr.max_
      (Expr.min_
         (Expr.mul
            (Expr.div
               (Expr.neg
                  (Expr.sub
                     (Expr.read "C" [ Index.var "i"; Index.var "j" ])
                     (Expr.read "R" [ Index.var "i"; Index.var "j" ])))
               (Expr.add (Expr.read "D" [ Index.var "j" ]) (Expr.imm 2.0)))
            (Expr.imm 1.5))
         (Expr.imm 0.5))
      (Expr.imm (-0.5))
  in
  Compute.v ~name:"gemm_epilogue_all_ops" ~axes ~inputs ~out_name:"C"
    ~epilogue ~body ()

(* GEMM + a bias read at column j / 2: a non-affine epilogue site, so the
   epilogue runs per element instead of over a row's lanes. *)
let gemm_bias_div ~m ~n ~k =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; k ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ k; n ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "Bias"; in_shape = [ (n + 1) / 2 ];
        in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A" [ Index.var "i"; Index.var "k" ])
      (Expr.read "B" [ Index.var "k"; Index.var "j" ])
  in
  let epilogue =
    Expr.add
      (Expr.read "C" [ Index.var "i"; Index.var "j" ])
      (Expr.read "Bias" [ Index.div (Index.var "j") (Index.const 2) ])
  in
  Compute.v ~name:"gemm_bias_div" ~axes ~inputs ~out_name:"C" ~epilogue
    ~body ()

let conv1x1 () =
  Ops.Op.compute
    (Ops.Conv.conv2d ~batch:1 ~in_channels:6 ~out_channels:5 ~height:5
       ~width:9 ~kernel:1 ~stride:1 ())

let dwconv3x3 ~stride =
  Ops.Op.compute
    (Ops.Conv.depthwise_conv2d ~batch:1 ~channels:3 ~height:11 ~width:11
       ~kernel:3 ~stride ())

(* The differential computes: random tiles/vthreads run over each body,
   combine, reduce-nest shape and epilogue the compiler lowers differently
   — plain GEMM, Max_combine (maxpool), an epilogue over a row's lanes,
   one with every lane opcode, one per element (a non-affine site), unit
   reduce axes (1x1 conv), a non-mergeable nest (3x3 depthwise; stride 2
   puts a coefficient of 2 on the row's slot), a merged run, non-affine
   accesses and a reduce-free product. *)
let differential_computes =
  [ ("gemm", fun () -> Ops.Op.compute (Ops.Matmul.gemm ~m:17 ~n:13 ~k:19 ()));
    ("maxpool",
     fun () ->
       Ops.Op.compute
         (Ops.Pool.maxpool2d ~batch:1 ~channels:2 ~height:9 ~width:9 ~window:3
            ~stride:3 ()));
    ("gemm+bias+relu", fun () -> gemm_bias_relu ~m:17 ~n:13 ~k:19);
    ("gemm+all-op epilogue", fun () -> gemm_epilogue_all_ops ~m:9 ~n:14 ~k:5);
    ("gemm+bias[j/2]", fun () -> gemm_bias_div ~m:9 ~n:13 ~k:5);
    ("conv 1x1", conv1x1);
    ("dwconv 3x3 s1", fun () -> dwconv3x3 ~stride:1);
    ("dwconv 3x3 s2", fun () -> dwconv3x3 ~stride:2);
    ("merged reduce pair", fun () -> gemm_two_reduce ~m:7 ~n:9 ~c:3 ~k:5);
    ("div/mod access", fun () -> gemm_div_mod ~m:7 ~n:9 ~k:7);
    ("hadamard (m = 0)", fun () -> hadamard ~m:7 ~n:13) ]

let prop_random_schedules_correct =
  QCheck.Test.make ~count:220
    ~name:"random schedules: VM = reference"
    QCheck.(
      make
        Gen.(
          triple (int_range 0 10_000) (int_range 0 50)
            (int_range 0 (List.length differential_computes - 1))))
    (fun (seed, steps, which) ->
      let rng = Rng.create ~seed in
      let tag, make = List.nth differential_computes which in
      let compute = make () in
      let inputs = Exec.Reference.random_inputs ~seed compute in
      let expected = Exec.Reference.run compute inputs in
      let etir = random_schedule rng compute ~steps in
      check_differential ~tag:(tag ^ ": ") etir inputs expected;
      true)

let prop_vthread_preserves_semantics =
  QCheck.Test.make ~count:60 ~name:"vthread stripes preserve semantics"
    QCheck.(make Gen.(triple (int_range 1 8) (int_range 1 8) (int_range 0 100)))
    (fun (t0, v_raw, seed) ->
      let v = min v_raw t0 in
      let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:29 ~n:23 ~k:7 ()) in
      let inputs = Exec.Reference.random_inputs ~seed compute in
      let expected = Exec.Reference.run compute inputs in
      let e = Etir.create compute in
      let e = Etir.with_stile e ~level:0 ~dim:0 t0 in
      let e = Etir.with_stile e ~level:1 ~dim:0 (min 29 (t0 * 2)) in
      let e = Etir.with_vthread e ~dim:0 v in
      check_differential ~tag:"vthread: " e inputs expected;
      true)

(* Regression: a vthread count that does not divide the thread tile (stripe
   = ceil 5/3 = 2, so the last stripe is ragged) must still partition the
   output exactly on the compiled tier. *)
let test_non_dividing_vthread_stripe () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:29 ~n:23 ~k:7 ()) in
  let inputs = Exec.Reference.random_inputs ~seed:7 compute in
  let expected = Exec.Reference.run compute inputs in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:0 ~dim:0 5 in
  let e = Etir.with_stile e ~level:1 ~dim:0 13 in
  let e = Etir.with_vthread e ~dim:0 3 in
  check_differential ~tag:"ragged vthread: " e inputs expected

(* Rows along the last spatial slot (extent 13) that cross the level-1
   tile (5) and end at the grid edge: the row tile is 65 columns wide, so
   each row is the full 13 columns, three steps of four and a one-element
   tail. *)
let test_batches_cut_at_block_edges () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:3 ~n:13 ~k:7 ()) in
  let inputs = Exec.Reference.random_inputs ~seed:17 compute in
  let expected = Exec.Reference.run compute inputs in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:1 ~dim:0 3 in
  let e = Etir.with_stile e ~level:1 ~dim:1 5 in
  let e = Etir.with_stile e ~level:0 ~dim:1 5 in
  check_differential ~tag:"batch edges: " e inputs expected

(* The seed-2 [ffn_down] shape, reduced: a level-1 tile of 1x1, so every
   row of output crosses blocks.  Rows cut at the block edge would be one
   element long; the row tile widens the block to 4 rows of 64 columns,
   so the grid is one tile tall and two wide (64 + 6 columns), and every
   element goes through the tile multiply-accumulate. *)
let test_rows_cross_blocks () =
  let m = 4 and n = 70 in
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m ~n ~k:16 ()) in
  let inputs = Exec.Reference.random_inputs ~seed:23 compute in
  let expected = Exec.Reference.run compute inputs in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:1 ~dim:0 1 in
  let e = Etir.with_stile e ~level:1 ~dim:1 1 in
  check_int "level-1 tile along j" 1 (Etir.stile_eff e ~level:1 ~dim:1);
  let batched () =
    Option.value ~default:0 (Trace.Counter.find "exec.compiled.batched")
  in
  let before = batched () in
  check_differential ~tag:"rows across blocks: " e inputs expected;
  (* Rows of at most 64 columns: 70 = 64 + 6 per output row. *)
  let rows = m * 2 in
  let got = batched () - before in
  if got < (m * n) - (3 * rows) then
    Alcotest.failf "batched %d of %d elements in %d rows" got (m * n) rows

(* The default schedule of [compute] with level-1 tile [tiles]. *)
let fixed_schedule compute tiles =
  List.fold_left
    (fun (e, d) t -> (Etir.with_stile e ~level:1 ~dim:d t, d + 1))
    (Etir.create compute, 0) tiles
  |> fst

(* A fixed schedule of [compute], level-1 tile [tiles], checked against the
   reference bit for bit with exact coverage; returns how many elements
   the tile multiply-accumulate reduced. *)
let check_fixed ~tag ?(seed = 37) compute tiles =
  let inputs = Exec.Reference.random_inputs ~seed compute in
  let expected = Exec.Reference.run compute inputs in
  let e = fixed_schedule compute tiles in
  let tiled () =
    Option.value ~default:0 (Trace.Counter.find "exec.compiled.batched")
  in
  let before = tiled () in
  check_differential ~tag e inputs expected;
  tiled () - before

(* GEMM 11x131x9 under two level-1 tiles: 4 and 3 rows per tile, the last
   tile clipped to 3 and 2 rows; 65 and 67 columns, the last clipped to 66
   and 64.  Row lengths are 1, 2, 3 and 0 mod 4, so the four-wide step
   ends in every tail length.  A operand does not step along a row, so
   its load is hoisted. *)
let test_tile_gemm_clipped () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:11 ~n:131 ~k:9 ()) in
  List.iter
    (fun tiles ->
      let got = check_fixed ~tag:"clipped gemm tile: " compute tiles in
      check_int "every element through the tile kernel" (11 * 131) got)
    [ [ 4; 65 ]; [ 3; 67 ] ]

(* Depthwise 3x3 at stride 2: the input steps by 2 along a row (ga = 2)
   and the weight not at all, so the weight's load is hoisted.  Rows of 11
   end in a tail of 3. *)
let test_tile_dwconv_s2 () =
  let compute =
    Ops.Op.compute
      (Ops.Conv.depthwise_conv2d ~batch:1 ~channels:3 ~height:11 ~width:23
         ~kernel:3 ~stride:2 ())
  in
  ignore (check_fixed ~tag:"dwconv s2 tile: " compute [ 1; 2; 3; 4 ])

(* Hadamard product: both operands step along a row, one reduce point. *)
let test_tile_hadamard () =
  ignore
    (check_fixed ~tag:"hadamard tile: " (hadamard ~m:7 ~n:13) [ 3; 5 ])

(* out[i,j] = Σ_k A[i,j,k] * B[k,j]: both operands step along a row (by
   k and by 1), and a reduce point steps them by 1 and by n, so the
   four-point pass loads both per point and a swapped step shows. *)
let row_dot ~m ~n ~k =
  let open Tensor_lang in
  let axes = [ Axis.spatial "i" m; Axis.spatial "j" n; Axis.reduce "k" k ] in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = [ m; n; k ]; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = [ k; n ]; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul
      (Expr.read "A" [ Index.var "i"; Index.var "j"; Index.var "k" ])
      (Expr.read "B" [ Index.var "k"; Index.var "j" ])
  in
  Compute.v ~name:"row_dot" ~axes ~inputs ~out_name:"C" ~body ()

(* [Compiled.pp] of [compute] under level-1 tile [tiles]. *)
let summary ?(tiles = []) compute =
  Fmt.str "%a" Exec.Compiled.pp
    (Exec.Compiled.compile (fixed_schedule compute tiles))

let check_summary what got expected =
  if not (contains got expected) then
    Alcotest.failf "%s: %S lacks %S" what got expected

(* Fixed tile-kernel cases [(what, compute, elements, schedules)]: under
   each schedule's level-1 tile, [Compiled.pp] shows the expected text,
   the VM matches the reference bit for bit with exact coverage, and all
   [elements] go through the tile kernel. *)
let check_tile_cases cases =
  List.iter
    (fun (what, compute, elements, schedules) ->
      List.iter
        (fun (tiles, expect) ->
          check_summary what (summary ~tiles compute) expect;
          let got = check_fixed ~tag:(what ^ ": ") compute tiles in
          check_int (what ^ ": elements through the tile kernel") elements got)
        schedules)
    cases

(* Reduce runs of 8, 9, 10 and 11 points (two passes of four and a tail
   of 0 to 3), on one-row and multi-row tiles: a GEMM, whose A does not
   step along a row, and a product where both operands do.  A 5x5 conv
   over 3 channels keeps all three reduce axes as runs: its 75 points go
   as eighteen four-point blocks, most of them spanning two 5-point inner
   runs, and a tail of 3; its weight does not step along a row. *)
let test_tile_four_point () =
  let conv =
    Ops.Op.compute
      (Ops.Conv.conv2d ~batch:1 ~in_channels:3 ~out_channels:2 ~height:11
         ~width:13 ~kernel:5 ~stride:1 ())
  in
  let conv_runs = "reduce runs [3;5;5] mac unit-step A" in
  check_tile_cases
    (List.concat_map
       (fun k ->
         let runs = Fmt.str "reduce runs [%d] mac" k in
         let schedules = [ ([ 1; 5 ], runs); ([ 4; 13 ], runs) ] in
         [ (Fmt.str "gemm k=%d" k,
            Ops.Op.compute (Ops.Matmul.gemm ~m:6 ~n:13 ~k ()), 6 * 13,
            schedules);
           (Fmt.str "row dot k=%d" k, row_dot ~m:6 ~n:13 ~k, 6 * 13,
            schedules) ])
       [ 8; 9; 10; 11 ]
    @ [ ("conv 5x5", conv, 2 * 7 * 9,
         [ ([ 1; 1; 1; 1 ], conv_runs); ([ 1; 2; 3; 5 ], conv_runs) ]) ])

(* out[i,j] = Σ_{r0,r1,r2} A[i,..] * B[..] over reduce extents [ext]:
   each operand, given as (step, slide), steps by [step] along j and
   either takes the reduce indices in order and then [step*j] (slide
   [None]) or takes the other two and then [step*j + r_p] (slide
   [Some p]).  Extent-1 axes drop out of the run table, an operand that
   does not slide lets the axes merge, and a slid axis stays a run of its
   own, so the shape of the table and both operands' steps vary. *)
let window_mac ~m ~n ~ext (step_a, slide_a) (step_b, slide_b) =
  let open Tensor_lang in
  let r = [| "r0"; "r1"; "r2" |] in
  let along_j step =
    match step with
    | 0 -> Index.const 0
    | 1 -> Index.var "j"
    | s -> Index.mul (Index.const s) (Index.var "j")
  in
  (* An operand's indices and shape. *)
  let operand step slide =
    let last = (step * (n - 1)) + 1 in
    match slide with
    | None ->
      ( List.map Index.var (Array.to_list r) @ [ along_j step ],
        Array.to_list ext @ [ last ] )
    | Some p ->
      let others = List.filter (fun q -> q <> p) [ 0; 1; 2 ] in
      ( List.map (fun q -> Index.var r.(q)) others
        @ [ Index.add (along_j step) (Index.var r.(p)) ],
        List.map (fun q -> ext.(q)) others @ [ last + ext.(p) - 1 ] )
  in
  let ia, shape_a = operand step_a slide_a
  and ib, shape_b = operand step_b slide_b in
  let axes =
    [ Axis.spatial "i" m; Axis.spatial "j" n ]
    @ Array.to_list (Array.mapi (fun k e -> Axis.reduce r.(k) e) ext)
  in
  let inputs =
    [ { Compute.in_name = "A"; in_shape = m :: shape_a; in_dtype = Dtype.F32 };
      { Compute.in_name = "B"; in_shape = shape_b; in_dtype = Dtype.F32 } ]
  in
  let body =
    Expr.mul (Expr.read "A" (Index.var "i" :: ia)) (Expr.read "B" ib)
  in
  Compute.v ~name:"window_mac" ~axes ~inputs ~out_name:"C" ~body ()

(* Four-point blocks are drawn across run boundaries: [3;3] runs as 4+4+1
   points (under each pass that takes it), [2;3] as 4+2 and [3;5;5] (in
   the four-point test above) as eighteen blocks and 3; nests of fewer
   than four points run one point at a time. *)
let test_tile_nest_blocks () =
  let window a b = window_mac ~m:5 ~n:11 ~ext:[| 1; 2; 3 |] a b in
  let gemm k = Ops.Op.compute (Ops.Matmul.gemm ~m:5 ~n:11 ~k ()) in
  check_tile_cases
    ([ ("dwconv 3x3 s1", dwconv3x3 ~stride:1, 3 * 9 * 9,
        [ ([ 1; 1; 2; 3 ], "reduce runs [3;3] mac unit-step A") ]);
       ("dwconv 3x3 s2", dwconv3x3 ~stride:2, 3 * 5 * 5,
        [ ([ 1; 1; 2; 3 ], "reduce runs [3;3] mac strided A") ]);
       ("[2;3] A steps", window (1, Some 2) (0, None), 5 * 11,
        [ ([ 2; 5 ], "reduce runs [2;3] mac unit-step A") ]);
       ("[2;3] B steps", window (0, None) (1, Some 2), 5 * 11,
        [ ([ 2; 5 ], "reduce runs [2;3] mac unit-step B") ]);
       ("[2;3] both step", window (1, Some 2) (2, None), 5 * 11,
        [ ([ 2; 5 ], "reduce runs [2;3] mac general") ]) ]
    @ List.map
        (fun k ->
          (Fmt.str "gemm k=%d" k, gemm k, 5 * 11,
           [ ([ 1; 5 ], Fmt.str "reduce runs [%d] mac unit-step B" k) ]))
        [ 1; 2; 3 ])

(* Each register-blocked pass on rows of 1 to 11 elements, every length
   mod 4, so its 4-element blocks end in every tail: a GEMM (A does not
   step, B steps by 1) with 9-point runs, a 1x1 conv (the weight does not
   step, the input steps by 1) with 6-point runs and a 3x3 depthwise conv
   with [3;3] (at one output column an input row is the kernel's width,
   so the two runs merge into [9]). *)
let test_unit_step_rows () =
  check_tile_cases
    (List.concat_map
       (fun w ->
         [ (Fmt.str "gemm n=%d" w,
            Ops.Op.compute (Ops.Matmul.gemm ~m:5 ~n:w ~k:9 ()), 5 * w,
            [ ([ 2; w ], "reduce runs [9] mac unit-step B") ]);
           (Fmt.str "conv 1x1 w=%d" w,
            Ops.Op.compute
              (Ops.Conv.conv2d ~batch:1 ~in_channels:6 ~out_channels:2
                 ~height:3 ~width:w ~kernel:1 ~stride:1 ()),
            2 * 3 * w,
            [ ([ 1; 1; 2; w ], "reduce runs [6] mac unit-step A") ]);
           (Fmt.str "dwconv 3x3 w=%d" w,
            Ops.Op.compute
              (Ops.Conv.depthwise_conv2d ~batch:1 ~channels:2 ~height:5
                 ~width:(w + 2) ~kernel:3 ~stride:1 ()),
            2 * 3 * w,
            [ ( [ 1; 1; 2; w ],
                Fmt.str "reduce runs [%s] mac unit-step A"
                  (if w = 1 then "9" else "3;3") ) ]) ])
       (List.init 11 (fun i -> i + 1)))

(* Random reduce nests: extents 1 to 6 on three axes (so one to three
   runs, or a single one-point run), each operand stepping by 0, 1 or 2
   along a row and sliding along any or no reduce axis, under a random
   schedule.  Every pass and every way a block can span runs comes up. *)
let prop_random_nests_correct =
  QCheck.Test.make ~count:200 ~name:"random reduce nests: VM = reference"
    QCheck.(make Gen.(pair (int_range 0 100_000) (int_range 0 30)))
    (fun (seed, steps) ->
      let rng = Rng.create ~seed in
      let operand () =
        let step = Rng.int rng 3 in
        (step, Rng.choice rng [ None; Some 0; Some 1; Some 2 ])
      in
      let ext = Array.init 3 (fun _ -> 1 + Rng.int rng 6) in
      let m = 1 + Rng.int rng 5 in
      let n = 1 + Rng.int rng 12 in
      let a = operand () in
      let b = operand () in
      let compute = window_mac ~m ~n ~ext a b in
      let inputs = Exec.Reference.random_inputs ~seed compute in
      let expected = Exec.Reference.run compute inputs in
      let etir = random_schedule rng compute ~steps in
      check_differential
        ~tag:(Fmt.str "%a: " Exec.Compiled.pp (Exec.Compiled.compile etir))
        etir inputs expected;
      true)

(* One-row level-1 blocks still reduce four rows per tile: GEMM 6x70
   under a 1x1 block runs tiles of 4 rows and then 2; a depthwise conv
   with 9 output rows ends in a 1-row tile, and a 3-row block widens to
   6 rows, clipped to 3. *)
let test_tile_tall () =
  check_tile_cases
    [ ("gemm 6x70", Ops.Op.compute (Ops.Matmul.gemm ~m:6 ~n:70 ~k:16 ()),
       6 * 70, [ ([ 1; 1 ], "row tile [4;64]") ]);
      ("dwconv 9 rows",
       Ops.Op.compute
         (Ops.Conv.depthwise_conv2d ~batch:1 ~channels:3 ~height:11 ~width:12
            ~kernel:3 ~stride:1 ()),
       3 * 9 * 10,
       [ ([ 1; 1; 1; 1 ], "row tile [1;1;4;64]");
         ([ 1; 2; 3; 5 ], "row tile [1;2;6;65]") ]) ]

(* Epilogues, on clipped multi-row tiles: one over a row's lanes that runs
   every float opcode, and one with a non-affine site that runs per
   element.  [Compiled.pp] names the per-element case. *)
let test_epilogue_lanes_and_fallback () =
  let all_ops = gemm_epilogue_all_ops ~m:9 ~n:70 ~k:5 in
  let div = gemm_bias_div ~m:9 ~n:70 ~k:5 in
  if contains (summary all_ops) "per element" then
    Alcotest.failf "all-op epilogue runs per element: %s" (summary all_ops);
  if not (contains (summary div) "per element") then
    Alcotest.failf "bias[j/2] epilogue runs over lanes: %s" (summary div);
  List.iter
    (fun (tag, compute) ->
      ignore (check_fixed ~tag compute [ 4; 3 ]);
      ignore (check_fixed ~tag compute [ 2; 70 ]))
    [ ("all-op epilogue: ", all_ops); ("bias[j/2] epilogue: ", div) ]

(* [Max_combine] starts from -inf: with every input negative, each
   pooling window's maximum is negative, so any other init (0.0 say)
   shows in every output element. *)
let test_maxpool_all_negative () =
  let compute =
    Ops.Op.compute
      (Ops.Pool.maxpool2d ~batch:1 ~channels:2 ~height:9 ~width:9 ~window:3
         ~stride:3 ())
  in
  let inputs = Exec.Reference.random_inputs ~seed:29 compute in
  List.iter
    (fun (_, t) ->
      let d = Exec.Tensor.unsafe_data t in
      Array.iteri (fun i x -> d.(i) <- x -. 1.0) d)
    inputs;
  let expected = Exec.Reference.run compute inputs in
  Array.iter
    (fun x -> if not (x < 0.0) then Alcotest.failf "reference max %g" x)
    (Exec.Tensor.unsafe_data expected);
  let rng = Rng.create ~seed:31 in
  check_differential ~tag:"all-negative maxpool: " (Etir.create compute)
    inputs expected;
  for _ = 1 to 4 do
    check_differential ~tag:"all-negative maxpool: "
      (random_schedule rng compute ~steps:20)
      inputs expected
  done

(* The lowering [Compiled.pp] reports: the reduce-run table, the kernel
   and, for a multiply-accumulate, the four-point pass its operands'
   steps along a row select. *)
let test_lowering_summary () =
  List.iter
    (fun (what, compute, expected) ->
      check_summary what (summary compute) expected)
    [ ("gemm", Ops.Op.compute (Ops.Matmul.gemm ~m:8 ~n:8 ~k:16 ()),
       "reduce runs [16] mac unit-step B");
      ("1x1 conv",
       Ops.Op.compute
         (Ops.Conv.conv2d ~batch:1 ~in_channels:32 ~out_channels:8 ~height:6
            ~width:6 ~kernel:1 ~stride:1 ()),
       "reduce runs [32] mac unit-step A");
      ("3x3 depthwise", dwconv3x3 ~stride:1,
       "reduce runs [3;3] mac unit-step A");
      ("3x3 depthwise s2", dwconv3x3 ~stride:2,
       "reduce runs [3;3] mac strided A");
      ("hadamard", hadamard ~m:7 ~n:13, "reduce runs [1] mac general");
      ("merged pair", gemm_two_reduce ~m:7 ~n:9 ~c:3 ~k:5,
       "reduce runs [15] mac unit-step B");
      ("maxpool",
       Ops.Op.compute
         (Ops.Pool.maxpool2d ~batch:1 ~channels:2 ~height:9 ~width:9 ~window:3
            ~stride:3 ()),
       "reduce runs [3;3] fold");
      ("div/mod", gemm_div_mod ~m:7 ~n:9 ~k:7, "per-point offsets") ]

(* ---------- Raised verification shapes ---------- *)

(* Deep-reduction GEMM at the benchmark shape: 256^3, reduction depth 256,
   chunked by both reduce tiles — the chunking must not reorder a sum. *)
let test_gemm256_compiled_matches_reference () =
  let compute = Ops.Op.compute (Ops.Matmul.gemm ~m:256 ~n:256 ~k:256 ()) in
  let inputs = Exec.Reference.random_inputs ~seed:11 compute in
  let expected = Exec.Reference.run compute inputs in
  let e = Etir.create compute in
  let e = Etir.with_stile e ~level:1 ~dim:0 32 in
  let e = Etir.with_stile e ~level:1 ~dim:1 64 in
  let e = Etir.with_stile e ~level:0 ~dim:0 4 in
  let e = Etir.with_stile e ~level:0 ~dim:1 2 in
  let e = Etir.with_vthread e ~dim:1 2 in
  let e = Etir.with_rtile e ~level:0 ~dim:0 4 in
  let e = Etir.with_rtile e ~level:1 ~dim:0 32 in
  check_differential ~tag:"gemm256: " e inputs expected

(* A real conv layer (32x32 channels, 28x28 spatial, 3x3 kernel) through
   the full differential. *)
let test_conv_layer_differential () =
  let compute =
    Ops.Op.compute
      (Ops.Conv.conv2d ~batch:1 ~in_channels:32 ~out_channels:32 ~height:28
         ~width:28 ~kernel:3 ~stride:1 ())
  in
  let inputs = Exec.Reference.random_inputs ~seed:13 compute in
  let expected = Exec.Reference.run compute inputs in
  let rng = Rng.create ~seed:5 in
  let etir = random_schedule rng compute ~steps:30 in
  check_differential ~tag:"conv layer: " etir inputs expected

let () =
  Alcotest.run "exec"
    [ ("tensor",
       [ Alcotest.test_case "basics" `Quick test_tensor_basics;
         Alcotest.test_case "init" `Quick test_tensor_init;
         Alcotest.test_case "padding" `Quick test_tensor_pad;
         Alcotest.test_case "mixed tolerance" `Quick test_mixed_tolerance;
         Alcotest.test_case "first mismatch" `Quick test_first_mismatch;
         QCheck_alcotest.to_alcotest prop_compares_match_spec ]);
      ("reference",
       [ Alcotest.test_case "gemm 2x2" `Quick test_reference_gemm;
         Alcotest.test_case "avgpool scale" `Quick test_reference_avgpool_scale;
         Alcotest.test_case "maxpool combine" `Quick test_reference_maxpool;
         Alcotest.test_case "missing input" `Quick test_reference_missing_input;
         Alcotest.test_case "shape mismatch" `Quick
           test_reference_shape_mismatch;
         QCheck_alcotest.to_alcotest prop_reference_matches_spec ]);
      ("coverage",
       [ Alcotest.test_case "violation diagnostics" `Quick
           test_coverage_violation ]);
      ("differential",
       [ Alcotest.test_case "VM = reference on all op classes"
           `Slow test_executors_match_reference;
         Alcotest.test_case "non-dividing vthread stripe" `Quick
           test_non_dividing_vthread_stripe;
         Alcotest.test_case "batches cut at block edges" `Quick
           test_batches_cut_at_block_edges;
         Alcotest.test_case "rows cross blocks" `Quick test_rows_cross_blocks;
         Alcotest.test_case "tile kernel: clipped multi-row GEMM" `Quick
           test_tile_gemm_clipped;
         Alcotest.test_case "tile kernel: dwconv 3x3 s2" `Quick
           test_tile_dwconv_s2;
         Alcotest.test_case "tile kernel: hadamard" `Quick test_tile_hadamard;
         Alcotest.test_case "tile kernel: four-point reduce" `Quick
           test_tile_four_point;
         Alcotest.test_case "tile kernel: tall tiles" `Quick test_tile_tall;
         Alcotest.test_case "epilogue over lanes and per element" `Quick
           test_epilogue_lanes_and_fallback;
         Alcotest.test_case "maxpool with all-negative inputs" `Quick
           test_maxpool_all_negative;
         Alcotest.test_case "lowering summary" `Quick test_lowering_summary;
         Alcotest.test_case "tile kernel: blocks across runs" `Quick
           test_tile_nest_blocks;
         Alcotest.test_case "tile kernel: unit-step rows" `Quick
           test_unit_step_rows;
         QCheck_alcotest.to_alcotest prop_random_nests_correct;
         QCheck_alcotest.to_alcotest prop_random_schedules_correct;
         QCheck_alcotest.to_alcotest prop_vthread_preserves_semantics ]);
      ("raised shapes",
       [ Alcotest.test_case "gemm 256^3 compiled vs reference" `Slow
           test_gemm256_compiled_matches_reference;
         Alcotest.test_case "conv 32ch 28x28 differential" `Slow
           test_conv_layer_differential ]) ]
