(* Kernel lint pass: the kernel tree against ETIR-derived facts.

   Codegen is a separate lowering of the same schedule the cost model
   scores; any disagreement between the two (shared-slice extents vs the
   footprint model, launch dims vs the ETIR thread/grid shape) means the
   kernel being shipped is not the schedule that was verified and priced.
   Every check here compares a field of the tree with the same fact
   recomputed from the ETIR.

   GSR-L03, L05, L07, L08, L09, L12 and L15 are retired: the tree's types
   make their conditions unrepresentable (DESIGN.md §7). *)

open Sched
module K = Codegen.Kernel

let product = List.fold_left ( * ) 1

let check etir (kernel : K.t) =
  let compute = Etir.compute etir in
  let diags = ref [] in
  let add sev ~code ~loc fmt =
    Fmt.kstr
      (fun m ->
        diags := Diagnostic.v ~code sev Diagnostic.Lint ~loc "%s" m :: !diags)
      fmt
  in
  let error ~code ~loc fmt = add Diagnostic.Error ~code ~loc fmt in
  let line n = Fmt.str "kernel line %d" n in
  let staged = Costmodel.Footprint.input_elems etir ~level:1 in
  let shared = List.mapi (fun i (tensor, elems) -> (i, tensor, elems)) kernel.shared in
  (* Shared slices: one per staged level-1 slice, sized exactly to the
     footprint model's element count. *)
  List.iter
    (fun (tensor, elems) ->
      match List.find_opt (fun (_, t, _) -> t = tensor) shared with
      | None ->
        error ~code:"GSR-L01" ~loc:"kernel"
          "missing __shared__ declaration for the staged slice of %s" tensor
      | Some (i, _, declared) ->
        if declared <> elems then
          error ~code:"GSR-L02" ~loc:(line (K.shared_line i))
            "__shared__ smem_%s declares %d floats but the level-1 footprint \
             stages %d" tensor declared elems)
    staged;
  (* No slices beyond the staged ones. *)
  List.iter
    (fun (i, tensor, _) ->
      if not (List.mem_assoc tensor staged) then
        add Diagnostic.Warning ~code:"GSR-L04" ~loc:(line (K.shared_line i))
          "shared array not backed by any staged level-1 slice")
    shared;
  (* Accumulator: exactly the level-0 spatial tile. *)
  let acc_expected =
    product
      (List.init (Etir.num_spatial etir) (fun i -> Etir.stile etir ~level:0 ~dim:i))
  in
  if kernel.acc <> acc_expected then
    error ~code:"GSR-L06" ~loc:(line (K.acc_line kernel))
      "accumulator holds %d floats but the level-0 tile has %d elements"
      kernel.acc acc_expected;
  (* Symbols: the kernel and the host launch both name the compute. *)
  let kname = Codegen.Cuda.kernel_symbol compute in
  if kernel.symbol <> kname then
    error ~code:"GSR-L10" ~loc:"kernel" "kernel symbol %s not found" kname;
  if kernel.host.callee <> kname then
    error ~code:"GSR-L11" ~loc:"host" "host snippet does not launch %s" kname;
  (* Launch shape and dynamic shared memory against the schedule. *)
  let launch = kernel.host.launch in
  let check_dims (x, y, z) expected what =
    if x * y * z <> expected then
      error ~code:"GSR-L13" ~loc:"host"
        "%s launches %d but the schedule prescribes %d" what (x * y * z)
        expected
  in
  check_dims launch.grid (Etir.grid_blocks etir) "grid";
  check_dims launch.block (Etir.threads_per_block etir) "block";
  let smem = Costmodel.Footprint.bytes_at etir ~level:1 in
  if launch.smem_bytes <> smem then
    error ~code:"GSR-L14" ~loc:"host"
      "launch allocates %d bytes of dynamic shared memory but the staged \
       footprint is %d" launch.smem_bytes smem;
  (* Advisory: shared slices without a staging write to fill them. *)
  let staged_writes = ref false in
  K.iter kernel (fun ~line:_ ~loops:_ -> function
    | K.Stage _ -> staged_writes := true
    | _ -> ());
  if kernel.shared <> [] && not !staged_writes then
    add Diagnostic.Info ~code:"GSR-L16" ~loc:"kernel"
      "shared arrays declared but never filled (no reduction staging phase)";
  List.rev !diags
