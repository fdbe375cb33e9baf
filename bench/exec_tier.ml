(* Executor check: the compiled bytecode VM vs the staged reference, in
   domain points per second, on realistic shapes with Roller-constructed
   schedules; the speedup column is the VM's win.  The VM column is the
   fastest of [vm_runs] runs of a program compiled beforehand, so it reads
   the same from run to run on a shared host; the reference, ~50-100x
   slower on the multiply-accumulate cases, is timed once, staging
   included; the last column is the VM's
   reduction lowering ([Compiled.pp_reduction]), naming the
   multiply-accumulate's pass.  Both reduce every output element in the
   same order, so they must agree bit for bit on every case: a single
   differing output bit, or a VM run whose coverage is not exact, fails
   the experiment (exit 1) after the table is printed.  Run with:
   dune exec bench/main.exe exec *)

let hw = Hardware.Presets.rtx4090

let cases () =
  [ ("GEMM 128^3", Ops.Matmul.gemm ~m:128 ~n:128 ~k:128 ());
    ("GEMM 256^3", Ops.Matmul.gemm ~m:256 ~n:256 ~k:256 ());
    (* BERT-small's FFN up-projection at four tokens: a skinny GEMM whose
       few rows all share each strip of the weight. *)
    ("BERT FFN 4 tok 4x1024x256", Ops.Matmul.gemm ~m:4 ~n:1024 ~k:256 ());
    ("Conv 16ch 28x28 k3",
     Ops.Conv.conv2d ~batch:1 ~in_channels:16 ~out_channels:16 ~height:28
       ~width:28 ~kernel:3 ~stride:1 ());
    ("MaxPool 32ch 56x56",
     Ops.Pool.maxpool2d ~batch:1 ~channels:32 ~height:56 ~width:56 ~window:2
       ~stride:2 ());
    (* MobileNetV2's first inverted-residual block: unit reduce axes
       (1x1 projection) and a short non-contiguous nest (3x3 depthwise). *)
    ("MBv2 proj 1x1 32>16 112^2",
     Ops.Conv.conv2d ~batch:1 ~in_channels:32 ~out_channels:16 ~height:112
       ~width:112 ~kernel:1 ~stride:1 ());
    ("MBv2 dw 3x3 32ch 112^2",
     Ops.Conv.depthwise_conv2d ~batch:1 ~channels:32 ~height:112 ~width:112
       ~kernel:3 ~stride:1 ~pad:1 ());
    (* The same at stride 2 (as in MobileNetV2's downsampling blocks): the
       input steps by 2 along a row, the weight not at all. *)
    ("MBv2 dw 3x3 s2 32ch 112^2",
     Ops.Conv.depthwise_conv2d ~batch:1 ~channels:32 ~height:112 ~width:112
       ~kernel:3 ~stride:2 ~pad:1 ()) ]

let vm_runs = 10

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The last of [k] calls of [f] and the least time one took. *)
let min_time k f =
  let rec go i (r, best) =
    if i = k then (r, best)
    else
      let r, t = time f in
      go (i + 1) (r, Float.min best t)
  in
  go 1 (time f)

let run () =
  Ctx.section "Executor — compiled VM vs staged reference (points/s)";
  let failures = ref [] in
  let fail label what = failures := Fmt.str "%s: %s" label what :: !failures in
  let rows =
    List.map
      (fun (label, op) ->
        let compute = Ops.Op.compute op in
        let etir = (Roller.construct ~hw compute).Roller.etir in
        let inputs = Exec.Reference.random_inputs ~seed:3 compute in
        let points = float_of_int (Tensor_lang.Compute.domain_points compute) in
        let prog = Exec.Compiled.compile etir in
        let compiled, t_vm =
          min_time vm_runs (fun () -> Exec.Compiled.run_compiled prog inputs)
        in
        let expected, t_ref =
          time (fun () -> Exec.Reference.run compute inputs)
        in
        (match
           Exec.Tensor.first_bit_mismatch expected
             compiled.Exec.Scheduled.output
         with
        | None -> ()
        | Some (at, e, c) ->
          fail label
            (Fmt.str "VM differs at [%a]: reference %h, compiled %h"
               Fmt.(list ~sep:comma int)
               at e c));
        if not (Exec.Scheduled.coverage_exact compiled) then
          fail label "compiled coverage not exact";
        let vm_s = points /. t_vm and ref_s = points /. t_ref in
        let speedup = vm_s /. ref_s in
        Ctx.record ~experiment:"exec" ~quantity:(label ^ " VM speedup")
          ~measured:speedup ~unit_:"x" ();
        [ label;
          Fmt.str "%.2fM" (points /. 1e6);
          Fmt.str "%.1f" (vm_s /. 1e6);
          Fmt.str "%.1f" (ref_s /. 1e6);
          Fmt.str "%.1fx" speedup;
          Fmt.str "%a" Exec.Compiled.pp_reduction prog ])
      (cases ())
  in
  Report.Table.print
    (Report.Table.v
       ~headers:
         [ "case"; "points"; "VM Mpt/s"; "ref Mpt/s"; "speedup"; "lowering" ]
       rows);
  if !failures <> [] then begin
    List.iter (Fmt.epr "exec: %s@.") (List.rev !failures);
    exit 1
  end
