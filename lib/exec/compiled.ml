(* Compiled execution tier: an ETIR schedule lowered to a flat
   register-based bytecode program, run by a tight dispatch-loop VM.

   Walking the expression tree per point would pay a string-keyed env
   lookup per variable, a [List.assoc_opt] per tensor read and a
   list-allocated coordinate per element.  This tier removes all of that at
   compile time (TVM's core move of lowering loop nests instead of
   interpreting them):

   - every loop variable gets a fixed integer slot ([vars] array);
   - every distinct tensor access becomes a {e read site} whose flat
     row-major offset is computed by a small integer program into a
     dedicated offset register — affine accesses collapse to one [IAFF]
     (base + Sigma coeff*var) instruction with precomputed strides;
   - the scalar body becomes a float register program over those offset
     registers, with direct unsafe loads from the input buffers;
   - when every body site is affine, the whole reduce nest is lowered to a
     {e run table} of (extent, per-site offset delta) runs: unit axes are
     dropped and contiguous axes merged, so every reduce point is one
     register add away;
   - the output is walked in row tiles (the level-1 block box, widened by
     whole blocks along the last two spatial axes, so a tile is at least
     four rows of 64 elements); each row runs the offset programs once,
     and an affine site's offset then steps by its coefficient of the last
     spatial slot per element;
   - the multiply-accumulate body walks the reduce nest once per tile and,
     four points per pass, updates every element of every row of the
     tile: an odometer over the run table (one counter per run) yields the
     next four points in ascending order, across run boundaries, and each
     accumulator is loaded once, takes the four products in point order
     and is stored once; the nest's last [points mod 4] go one at a time.
     The pass is chosen at compile time from the operands' steps along a
     row: where one does not step and the other steps by 1, it holds 4
     elements x 4 points in registers;
     the other bodies fill the same tile accumulator element by element;
   - an epilogue whose sites are all affine runs once per row, each
     instruction over the row's lanes.

   The order in which output elements are visited is not observable: each
   element's sum is independent of every other's, and the kernel's
   block / logical-unit / vthread-stripe nest visits exactly the block box
   once per element (DESIGN.md §15).  Every element's sum visits the
   reduce points in ascending lexicographic order — the order of
   [Reference.run] — and every epilogue lane runs the scalar program's
   operations in its order, so the VM's output equals the reference
   interpreter's bit for bit and the reference is the differential-testing
   oracle.  Unsafe array accesses are sound because [Compute.v] validates
   every access's bounding region over the full iteration domain against
   the declared tensor shapes, and [check_inputs] re-validates the actual
   input shapes against the declaration at run time. *)

open Tensor_lang
open Sched

(* ---------- bytecode ISA (documented in DESIGN.md §15) ---------- *)

(* Integer stream (offset computation; operands follow the opcode):
     ICONST dst k            iregs.(dst) <- k
     IVAR   dst slot         iregs.(dst) <- vars.(slot)
     IADD   dst a b          iregs.(dst) <- iregs.(a) + iregs.(b)
     ISUB   dst a b
     IMUL   dst a b
     IDIV   dst a b          floor division, positive divisor
     IMOD   dst a b          floor modulo, positive divisor
     IMIN   dst a b
     IMAX   dst a b
     IADDK  dst a k          iregs.(dst) <- iregs.(a) + k
     IMULK  dst a k          iregs.(dst) <- iregs.(a) * k
     IAFF   dst t base (slot coeff){t}
                             iregs.(dst) <- base + Sigma vars.(slot)*coeff *)
let iconst = 0
and ivar = 1
and iadd = 2
and isub = 3
and imul = 4
and idiv = 5
and imod = 6
and imin = 7
and imax = 8
and iaddk = 9
and imulk = 10
and iaff = 11

(* Float stream (body / epilogue evaluation):
     FCONST dst pool         fregs.(dst) <- fpool.(pool)
     FLOAD  dst tensor off   fregs.(dst) <- data.(tensor).(iregs.(off))
     FNEG   dst a
     FADD   dst a b … FMIN   dst a b    arithmetic on fregs
     FACC   dst              fregs.(dst) <- the reduced+scaled accumulator
                             (the epilogue's shadowed output read; the VM
                             passes it in a one-cell float array)
   Run over lanes, an epilogue program reads and writes every register as
   [cnt] lanes of one row; [FLOAD] lane e reads at off + e * step and
   [FACC] lane e is the row's element e. *)
let fconst = 0
and fload = 1
and fneg = 2
and fadd = 3
and fsub = 4
and fmul = 5
and fdiv = 6
and fmax' = 7
and fmin' = 8
and facc = 9

(* The multiply-accumulate's four-point pass, chosen at compile time from
   the two operands' steps along a row. *)
type mac_pass =
  | Unit_b  (* A does not step, B steps by 1: every GEMM *)
  | Unit_a  (* B does not step, A steps by 1: a stride-1 conv *)
  | Strided_a  (* B does not step, A by more than 1: a strided conv *)
  | General  (* any other pair: both operands loaded per element *)

(* Reduction kernel, chosen at compile time. *)
type kernel =
  | Mac of int * int * mac_pass
      (* acc <- acc + t_a[o_a] * t_b[o_b]; the GEMM/conv body *)
  | Fold of int       (* acc <- combine acc t_a[o_a]; pooling / elementwise *)
  | Generic           (* dispatch the body program per point *)

(* How one output element's reduction is walked. *)
type reduction =
  | Runs of {
      ext : int array;  (* run extents, outermost first; never empty *)
      delta : int array array;  (* run -> body site -> offset step *)
      kernel : kernel;
    }
      (* every body site is affine *)
  | Per_point  (* some body site is not: offsets re-derived per point *)

(* How the epilogue runs. *)
type epilogue =
  | Plain  (* none: store the scaled accumulator *)
  | Lanes of int array  (* every epilogue site affine: once per row *)
  | Scalar of int array  (* some site is not: once per element *)

type t = {
  compute : Compute.t;
  n : int;  (* spatial dims; [Compute.v] admits no fewer than one *)
  m : int;  (* reduce dims *)
  sext : int array;
  rext : int array;
  tile : int array;
      (* row tile: the level-1 block, widened along the last two axes *)
  init : float;
  scale : float;
  sum : bool;  (* combine = Sum *)
  tensors : string array;  (* tensor id -> input name *)
  tshapes : int list array;
  n_sites : int;  (* read sites; iregs.(site) holds the site's offset *)
  site_tensor : int array;
  step : int array;
      (* site -> coefficient of the last spatial slot: the offset step
         between adjacent elements of a row (0 for a non-affine site) *)
  body_idx : int array;  (* int program: body site offsets from vars *)
  epi_idx : int array;  (* int program: epilogue site offsets *)
  reduction : reduction;
  body_code : int array;  (* float program; value lands in freg 0 *)
  epilogue : epilogue;
  fpool : float array;
  n_iregs : int;
  n_fregs : int;
  out_strides : int array;
}

(* Least width of a row tile along the last spatial axis.  Rows cut at the
   block edge can be one element long; full-extent rows lose the block's
   reuse of the second operand's strip.  64 measured within noise of 16,
   32 and 128 on the cpu-exec kernels. *)
let row_width = 64

(* Least height of a row tile along the second-to-last spatial axis.  A
   one-row block would stream the whole second operand once per output
   row; four rows share each strip. *)
let tile_rows = 4

(* Most elements of a tile reduced in one walk of the run table: a tile's
   rows are reduced in groups that fit, so the accumulator stays in
   cache whatever the block size. *)
let tile_elements = 4096

let ceil_div a b = (a + b - 1) / b

(* ---------- counters ---------- *)

let c_programs = Trace.Counter.make "exec.compiled.programs"
let c_runs = Trace.Counter.make "exec.compiled.runs"
let c_points = Trace.Counter.make "exec.compiled.points"
let c_elements = Trace.Counter.make "exec.compiled.elements"
let c_batched = Trace.Counter.make "exec.compiled.batched"

(* ---------- affine analysis ---------- *)

(* [affine ix] is [Some (base, terms)] when [ix = base + Sigma coeff*var]
   with each variable occurring once in [terms]; [None] otherwise (Div,
   Mod, Min, Max, or a product of two variable-bearing operands). *)
let rec affine ix =
  let merge t1 t2 =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v acc with
        | None -> (v, c) :: acc
        | Some c0 -> (v, c0 + c) :: List.remove_assoc v acc)
      t1 t2
  in
  let lift2 f a b =
    match (affine a, affine b) with
    | Some (ba, ta), Some (bb, tb) -> f (ba, ta) (bb, tb)
    | _ -> None
  in
  match ix with
  | Index.Const c -> Some (c, [])
  | Index.Var v -> Some (0, [ (v, 1) ])
  | Index.Add (a, b) ->
    lift2 (fun (ba, ta) (bb, tb) -> Some (ba + bb, merge ta tb)) a b
  | Index.Sub (a, b) ->
    lift2
      (fun (ba, ta) (bb, tb) ->
        Some (ba - bb, merge ta (List.map (fun (v, c) -> (v, -c)) tb)))
      a b
  | Index.Mul (a, b) ->
    lift2
      (fun (ba, ta) (bb, tb) ->
        match (ta, tb) with
        | [], _ -> Some (ba * bb, List.map (fun (v, c) -> (v, ba * c)) tb)
        | _, [] -> Some (ba * bb, List.map (fun (v, c) -> (v, bb * c)) ta)
        | _ -> None)
      a b
  | Index.Div _ | Index.Mod _ | Index.Min _ | Index.Max _ -> None

(* ---------- compiler ---------- *)

type site = { s_tensor : int; s_access : Access.t; s_affine : (int * int array) option }

type ctx = {
  slot_of : string -> int;  (* loop variable -> vars slot *)
  n_slots : int;
  tensor_of : string -> int;
  tensor_strides : int array array;  (* tensor id -> row-major strides *)
  mutable sites : site list;  (* reversed; site id = position *)
  mutable n_sites_c : int;
  mutable shared_from : int;  (* sites below this id are not shared *)
  mutable pool : float list;  (* reversed float constant pool *)
  mutable n_pool : int;
  mutable max_ireg : int;
  mutable max_freg : int;
}

let touch_ireg ctx r = if r >= ctx.max_ireg then ctx.max_ireg <- r + 1
let touch_freg ctx r = if r >= ctx.max_freg then ctx.max_freg <- r + 1

let pool_const ctx f =
  ctx.pool <- f :: ctx.pool;
  ctx.n_pool <- ctx.n_pool + 1;
  ctx.n_pool - 1

(* Emission into a reversed int list; [program] materialises the array. *)
let emit buf ints = buf := List.rev_append ints !buf
let program buf = Array.of_list (List.rev !buf)

(* Compile an index expression into [dst], using dst, dst+1, ... as an
   evaluation stack.  Constant operands fold into IADDK/IMULK. *)
let rec compile_index ctx buf dst ix =
  touch_ireg ctx dst;
  let binop op a b =
    compile_index ctx buf dst a;
    compile_index ctx buf (dst + 1) b;
    emit buf [ op; dst; dst; dst + 1 ]
  in
  match ix with
  | Index.Const c -> emit buf [ iconst; dst; c ]
  | Index.Var v -> emit buf [ ivar; dst; ctx.slot_of v ]
  | Index.Add (a, Index.Const c) | Index.Add (Index.Const c, a) ->
    compile_index ctx buf dst a;
    emit buf [ iaddk; dst; dst; c ]
  | Index.Sub (a, Index.Const c) ->
    compile_index ctx buf dst a;
    emit buf [ iaddk; dst; dst; -c ]
  | Index.Mul (a, Index.Const c) | Index.Mul (Index.Const c, a) ->
    compile_index ctx buf dst a;
    emit buf [ imulk; dst; dst; c ]
  | Index.Add (a, b) -> binop iadd a b
  | Index.Sub (a, b) -> binop isub a b
  | Index.Mul (a, b) -> binop imul a b
  | Index.Div (a, b) -> binop idiv a b
  | Index.Mod (a, b) -> binop imod a b
  | Index.Min (a, b) -> binop imin a b
  | Index.Max (a, b) -> binop imax a b

(* The flat offset of [access] as an affine form over vars slots, when
   every index dimension is affine. *)
let access_affine ctx tensor access =
  let strides = ctx.tensor_strides.(tensor) in
  let rec go d base coeffs = function
    | [] -> Some (base, coeffs)
    | ix :: rest -> (
      match affine ix with
      | None -> None
      | Some (b, terms) ->
        let s = strides.(d) in
        List.iter
          (fun (v, c) ->
            let slot = ctx.slot_of v in
            coeffs.(slot) <- coeffs.(slot) + (c * s))
          terms;
        go (d + 1) (base + (b * s)) coeffs rest)
  in
  go 0 0 (Array.make ctx.n_slots 0) (Access.indices access)

(* Register a read site (dedup on structurally identical accesses at or
   above [shared_from]) and return its id; its offset register is the id
   itself. *)
let site_of ctx access =
  let tensor = ctx.tensor_of (Access.tensor access) in
  let existing =
    let rec find i = function
      | [] -> None
      | s :: rest ->
        let id = ctx.n_sites_c - 1 - i in
        if id < ctx.shared_from then None
        else if s.s_tensor = tensor && s.s_access = access then Some id
        else find (i + 1) rest
    in
    find 0 ctx.sites
  in
  match existing with
  | Some id -> id
  | None ->
    let id = ctx.n_sites_c in
    ctx.sites <-
      { s_tensor = tensor; s_access = access;
        s_affine = access_affine ctx tensor access }
      :: ctx.sites;
    ctx.n_sites_c <- id + 1;
    touch_ireg ctx id;
    id

(* Emit the offset computation of site [id] into its offset register. *)
let compile_site_offset ctx buf scratch id =
  let s = List.nth ctx.sites (ctx.n_sites_c - 1 - id) in
  match s.s_affine with
  | Some (base, coeffs) ->
    let terms = ref [] in
    Array.iteri
      (fun slot c -> if c <> 0 then terms := (slot, c) :: !terms)
      coeffs;
    let terms = List.rev !terms in
    emit buf [ iaff; id; List.length terms; base ];
    List.iter (fun (slot, c) -> emit buf [ slot; c ]) terms
  | None ->
    let strides = ctx.tensor_strides.(s.s_tensor) in
    emit buf [ iconst; id; 0 ];
    List.iteri
      (fun d ix ->
        match ix with
        | Index.Const c -> emit buf [ iaddk; id; id; c * strides.(d) ]
        | _ ->
          compile_index ctx buf scratch ix;
          emit buf [ imulk; scratch; scratch; strides.(d) ];
          emit buf [ iadd; id; id; scratch ])
      (Access.indices s.s_access)

(* Compile a scalar expression into float register [dst] (stack
   discipline as for indices).  [acc_tensor] names the tensor whose reads
   mean "the accumulator" (the epilogue's shadowed output); body
   compilation passes [None]. *)
let rec compile_expr ctx buf ~acc_tensor dst expr =
  touch_freg ctx dst;
  let binop op a b =
    compile_expr ctx buf ~acc_tensor dst a;
    compile_expr ctx buf ~acc_tensor (dst + 1) b;
    emit buf [ op; dst; dst; dst + 1 ]
  in
  match expr with
  | Expr.Imm f -> emit buf [ fconst; dst; pool_const ctx f ]
  | Expr.Read access when acc_tensor = Some (Access.tensor access) ->
    emit buf [ facc; dst ]
  | Expr.Read access ->
    let id = site_of ctx access in
    let tensor = ctx.tensor_of (Access.tensor access) in
    emit buf [ fload; dst; tensor; id ]
  | Expr.Neg a ->
    compile_expr ctx buf ~acc_tensor dst a;
    emit buf [ fneg; dst; dst ]
  | Expr.Add (a, b) -> binop fadd a b
  | Expr.Sub (a, b) -> binop fsub a b
  | Expr.Mul (a, b) -> binop fmul a b
  | Expr.Div (a, b) -> binop fdiv a b
  | Expr.Max (a, b) -> binop fmax' a b
  | Expr.Min (a, b) -> binop fmin' a b

(* The reduce nest as runs, outermost first, from the body sites' affine
   coefficients over vars slots.  Extent-1 axes are dropped (their slot
   stays 0) and an outer axis merges into the run inside it when, for
   every site, its step is the inner run's extent times the inner step:
   the merged run then walks the same points in the same order.  At least
   one run is kept, so a reduce-free compute is one run of one point. *)
let run_table ~n ~rext coeffs =
  let steps j = Array.map (fun c -> c.(n + j)) coeffs in
  let runs = ref [] in
  for j = Array.length rext - 1 downto 0 do
    if rext.(j) > 1 then
      let d = steps j in
      match !runs with
      | (e, inner) :: rest
        when Array.for_all2 (fun dout din -> dout = e * din) d inner ->
        runs := (e * rext.(j), inner) :: rest
      | l -> runs := (rext.(j), d) :: l
  done;
  let runs =
    if !runs = [] then [ (1, Array.make (Array.length coeffs) 0) ] else !runs
  in
  (Array.of_list (List.map fst runs), Array.of_list (List.map snd runs))

let compile etir =
  Trace.with_span ~name:"exec.compile" @@ fun () ->
  Trace.Counter.incr c_programs;
  let compute = Etir.compute etir in
  let spatial = Array.of_list (Compute.spatial_axes compute) in
  let reduce = Array.of_list (Compute.reduce_axes compute) in
  let n = Array.length spatial and m = Array.length reduce in
  let sext = Array.map Axis.extent spatial in
  let rext = Array.map Axis.extent reduce in
  let tile =
    Array.init n (fun i ->
        let b = Etir.stile_eff etir ~level:1 ~dim:i in
        if i = n - 1 then b * ceil_div row_width b
        else if i = n - 2 then b * ceil_div tile_rows b
        else b)
  in
  (* Loop-variable slots: spatial 0..n-1, reduce n..n+m-1. *)
  let slot_of name =
    let rec find i arr base =
      if i = Array.length arr then None
      else if Axis.name arr.(i) = name then Some (base + i)
      else find (i + 1) arr base
    in
    match find 0 spatial 0 with
    | Some s -> s
    | None -> (
      match find 0 reduce n with
      | Some s -> s
      | None -> invalid_arg (Fmt.str "Compiled: unbound variable %s" name))
  in
  let inputs = Array.of_list (Compute.inputs compute) in
  let tensors = Array.map (fun i -> i.Compute.in_name) inputs in
  let tshapes = Array.map (fun i -> i.Compute.in_shape) inputs in
  let tensor_of name =
    let rec find i =
      if i = Array.length tensors then
        invalid_arg (Fmt.str "Compiled: read of undeclared tensor %s" name)
      else if tensors.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  let strides_of shape =
    let a = Array.of_list shape in
    let k = Array.length a in
    let st = Array.make k 1 in
    for i = k - 2 downto 0 do
      st.(i) <- st.(i + 1) * a.(i + 1)
    done;
    st
  in
  let ctx =
    { slot_of; n_slots = n + m; tensor_of;
      tensor_strides = Array.map strides_of tshapes;
      sites = []; n_sites_c = 0; shared_from = 0; pool = []; n_pool = 0;
      max_ireg = 0; max_freg = 0 }
  in
  (* Body: float program first (registers its read sites), then the int
     program computing those sites' offsets. *)
  let body_buf = ref [] in
  compile_expr ctx body_buf ~acc_tensor:None 0 (Compute.body compute);
  let body_sites = ctx.n_sites_c in
  let sum = Compute.combine compute = Compute.Sum in
  (* A site's offset step between adjacent elements of a row: its
     coefficient of the last spatial slot (0 for a non-affine site). *)
  let row_step s =
    match s.s_affine with Some (_, c) -> c.(n - 1) | None -> 0
  in
  let kernel =
    match Compute.body compute with
    | Expr.Mul (Expr.Read a, Expr.Read b) when sum ->
      let sa = site_of ctx a and sb = site_of ctx b in
      let step id = row_step (List.nth ctx.sites (ctx.n_sites_c - 1 - id)) in
      let pass =
        match (step sa, step sb) with
        | 0, 1 -> Unit_b
        | 1, 0 -> Unit_a
        | ga, 0 when ga > 1 -> Strided_a
        | _ -> General
      in
      Mac (sa, sb, pass)
    | Expr.Read a -> Fold (site_of ctx a)
    | _ -> Generic
  in
  (* Epilogue: reads of the output tensor become FACC, everything else is
     a site of its own (over spatial variables only, per validation), so
     the epilogue's offsets never depend on the reduction's. *)
  ctx.shared_from <- body_sites;
  let epi_code =
    match Compute.epilogue compute with
    | None -> None
    | Some e ->
      let buf = ref [] in
      compile_expr ctx buf ~acc_tensor:(Some (Compute.out_name compute)) 0 e;
      Some (program buf)
  in
  (* Offset programs: scratch registers live above the site registers. *)
  let scratch = ctx.n_sites_c in
  touch_ireg ctx scratch;
  let body_idx_buf = ref [] in
  for id = 0 to body_sites - 1 do
    compile_site_offset ctx body_idx_buf scratch id
  done;
  let epi_idx_buf = ref [] in
  for id = body_sites to ctx.n_sites_c - 1 do
    compile_site_offset ctx epi_idx_buf scratch id
  done;
  let sites = Array.of_list (List.rev ctx.sites) in
  let affine lo hi =
    Array.for_all (fun s -> s.s_affine <> None) (Array.sub sites lo (hi - lo))
  in
  let reduction =
    if not (affine 0 body_sites) then Per_point
    else
      let coeffs =
        Array.init body_sites (fun s -> snd (Option.get sites.(s).s_affine))
      in
      let ext, delta = run_table ~n ~rext coeffs in
      Runs { ext; delta; kernel }
  in
  let epilogue =
    match epi_code with
    | None -> Plain
    | Some code when affine body_sites (Array.length sites) -> Lanes code
    | Some code -> Scalar code
  in
  { compute; n; m; sext; rext; tile;
    init = Compute.init compute; scale = Compute.scale compute; sum;
    tensors; tshapes;
    n_sites = ctx.n_sites_c;
    site_tensor = Array.map (fun s -> s.s_tensor) sites;
    step = Array.map row_step sites;
    body_idx = program body_idx_buf; epi_idx = program epi_idx_buf;
    reduction; body_code = program body_buf; epilogue;
    fpool = Array.of_list (List.rev ctx.pool);
    n_iregs = ctx.max_ireg; n_fregs = ctx.max_freg;
    out_strides = strides_of (Compute.output_shape compute) }

(* ---------- VM ---------- *)

(* Dispatch loops.  Opcodes are matched as integer literals (the compiler
   emits the same values via the named constants above) so the match
   compiles to a jump table, and operands are fetched with explicit
   unsafe reads — no closures in the hot loop. *)

let exec_int code vars iregs =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let base = !pc in
    match Array.unsafe_get code base with
    | 0 (* ICONST *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get code (base + 2));
      pc := base + 3
    | 1 (* IVAR *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get vars (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 9 (* IADDK *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
        + Array.unsafe_get code (base + 3));
      pc := base + 4
    | 10 (* IMULK *) ->
      Array.unsafe_set iregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
        * Array.unsafe_get code (base + 3));
      pc := base + 4
    | 11 (* IAFF *) ->
      let t = Array.unsafe_get code (base + 2) in
      let acc = ref (Array.unsafe_get code (base + 3)) in
      for i = 0 to t - 1 do
        acc :=
          !acc
          + Array.unsafe_get vars (Array.unsafe_get code (base + 4 + (2 * i)))
            * Array.unsafe_get code (base + 5 + (2 * i))
      done;
      Array.unsafe_set iregs (Array.unsafe_get code (base + 1)) !acc;
      pc := base + 4 + (2 * t)
    | op ->
      let a = Array.unsafe_get iregs (Array.unsafe_get code (base + 2))
      and b = Array.unsafe_get iregs (Array.unsafe_get code (base + 3)) in
      let v =
        match op with
        | 2 (* IADD *) -> a + b
        | 3 (* ISUB *) -> a - b
        | 4 (* IMUL *) -> a * b
        | 5 (* IDIV *) -> Index.floordiv a b
        | 6 (* IMOD *) -> Index.floormod a b
        | 7 (* IMIN *) -> min a b
        | 8 (* IMAX *) -> max a b
        | _ -> invalid_arg "Compiled: corrupt int opcode"
      in
      Array.unsafe_set iregs (Array.unsafe_get code (base + 1)) v;
      pc := base + 4
  done

let exec_float code fpool iregs fregs (data : float array array) cell =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let base = !pc in
    match Array.unsafe_get code base with
    | 0 (* FCONST *) ->
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get fpool (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 1 (* FLOAD *) ->
      let row = Array.unsafe_get data (Array.unsafe_get code (base + 2)) in
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get row
           (Array.unsafe_get iregs (Array.unsafe_get code (base + 3))));
      pc := base + 4
    | 2 (* FNEG *) ->
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (-.Array.unsafe_get fregs (Array.unsafe_get code (base + 2)));
      pc := base + 3
    | 9 (* FACC *) ->
      Array.unsafe_set fregs
        (Array.unsafe_get code (base + 1))
        (Array.unsafe_get cell 0);
      pc := base + 2
    | op ->
      let a = Array.unsafe_get fregs (Array.unsafe_get code (base + 2))
      and b = Array.unsafe_get fregs (Array.unsafe_get code (base + 3)) in
      let v =
        match op with
        | 3 (* FADD *) -> a +. b
        | 4 (* FSUB *) -> a -. b
        | 5 (* FMUL *) -> a *. b
        | 6 (* FDIV *) -> a /. b
        | 7 (* FMAX *) -> Float.max a b
        | 8 (* FMIN *) -> Float.min a b
        | _ -> invalid_arg "Compiled: corrupt float opcode"
      in
      Array.unsafe_set fregs (Array.unsafe_get code (base + 1)) v;
      pc := base + 4
  done

(* The float program over the [cnt] lanes of one row: register r's lane e
   is [lanes.(r * w + e)].  [FLOAD] lane e reads at the site's row offset
   [base.(rb + site)] plus e times its step; [FACC] lane e is
   [acc.(o + e)].  Each instruction runs over every lane before the next
   starts, so a lane sees the scalar program's operations in its order. *)
let exec_lanes code fpool lanes w cnt (data : float array array) base rb
    step acc o =
  let len = Array.length code in
  let pc = ref 0 in
  while !pc < len do
    let pc0 = !pc in
    let d = Array.unsafe_get code (pc0 + 1) * w in
    match Array.unsafe_get code pc0 with
    | 0 (* FCONST *) ->
      Array.fill lanes d cnt
        (Array.unsafe_get fpool (Array.unsafe_get code (pc0 + 2)));
      pc := pc0 + 3
    | 1 (* FLOAD *) ->
      let t = Array.unsafe_get data (Array.unsafe_get code (pc0 + 2)) in
      let site = Array.unsafe_get code (pc0 + 3) in
      let off = Array.unsafe_get base (rb + site) in
      let g = Array.unsafe_get step site in
      for e = 0 to cnt - 1 do
        Array.unsafe_set lanes (d + e) (Array.unsafe_get t (off + (e * g)))
      done;
      pc := pc0 + 4
    | 2 (* FNEG *) ->
      let a = Array.unsafe_get code (pc0 + 2) * w in
      for e = 0 to cnt - 1 do
        Array.unsafe_set lanes (d + e) (-.Array.unsafe_get lanes (a + e))
      done;
      pc := pc0 + 3
    | 9 (* FACC *) ->
      Array.blit acc o lanes d cnt;
      pc := pc0 + 2
    | op ->
      let a = Array.unsafe_get code (pc0 + 2) * w
      and b = Array.unsafe_get code (pc0 + 3) * w in
      (match op with
      | 3 (* FADD *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Array.unsafe_get lanes (a + e) +. Array.unsafe_get lanes (b + e))
        done
      | 4 (* FSUB *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Array.unsafe_get lanes (a + e) -. Array.unsafe_get lanes (b + e))
        done
      | 5 (* FMUL *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Array.unsafe_get lanes (a + e) *. Array.unsafe_get lanes (b + e))
        done
      | 6 (* FDIV *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Array.unsafe_get lanes (a + e) /. Array.unsafe_get lanes (b + e))
        done
      | 7 (* FMAX *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Float.max (Array.unsafe_get lanes (a + e))
               (Array.unsafe_get lanes (b + e)))
        done
      | 8 (* FMIN *) ->
        for e = 0 to cnt - 1 do
          Array.unsafe_set lanes (d + e)
            (Float.min (Array.unsafe_get lanes (a + e))
               (Array.unsafe_get lanes (b + e)))
        done
      | _ -> invalid_arg "Compiled: corrupt float opcode");
      pc := pc0 + 4
  done

(* One row of the tile multiply-accumulate at one reduce point:
   [acc.(o + e) <- acc.(o + e) + ta.(a + e * ga) * tb.(b + e * gb)] for
   [e < cnt].  It takes only the nest's last [points mod 4] points, so a
   plain loop: hoisted and unrolled branches measured within noise. *)
let mac_row (acc : float array) o cnt (ta : float array) a ga
    (tb : float array) b gb =
  let ja = ref a and jb = ref b in
  for i = o to o + cnt - 1 do
    Array.unsafe_set acc i
      (Array.unsafe_get acc i
      +. (Array.unsafe_get ta !ja *. Array.unsafe_get tb !jb));
    ja := !ja + ga;
    jb := !jb + gb
  done

(* One row of the tile multiply-accumulate at four reduce points: point q
   reads [ta.(a + aq + e * ga)] and [tb.(b + bq + e * gb)], where
   [a0 = b0 = 0] and [a1..a3], [b1..b3] are the other points' offsets
   from the first.  Each accumulator is loaded once, the four products are
   added to it in point order and it is stored once, so the sum is four
   [mac_row]s' bit for bit.  On unit-step rows ([Unit_b]: A does not step
   and B steps by 1; [Unit_a] the other way round) the hoisted operand's
   four values stay in registers and each step takes a 4-element x
   4-point block, the element index folded into the load's displacement.
   [Strided_a] keeps B's four values in registers and takes one element
   at a time; [General] loads both operands per element. *)
let mac_row4 pass (acc : float array) o cnt (ta : float array) a a1 a2 a3 ga
    (tb : float array) b b1 b2 b3 gb =
  let stop = o + cnt in
  match pass with
  | Unit_b ->
    let x0 = Array.unsafe_get ta a
    and x1 = Array.unsafe_get ta (a + a1)
    and x2 = Array.unsafe_get ta (a + a2)
    and x3 = Array.unsafe_get ta (a + a3) in
    let i = ref o and j = ref b in
    while !i + 4 <= stop do
      let i0 = !i and j0 = !j in
      let j1 = j0 + b1 and j2 = j0 + b2 and j3 = j0 + b3 in
      let s0 = Array.unsafe_get acc i0 +. (x0 *. Array.unsafe_get tb j0) in
      let s1 =
        Array.unsafe_get acc (i0 + 1) +. (x0 *. Array.unsafe_get tb (j0 + 1))
      in
      let s2 =
        Array.unsafe_get acc (i0 + 2) +. (x0 *. Array.unsafe_get tb (j0 + 2))
      in
      let s3 =
        Array.unsafe_get acc (i0 + 3) +. (x0 *. Array.unsafe_get tb (j0 + 3))
      in
      let s0 = s0 +. (x1 *. Array.unsafe_get tb j1) in
      let s1 = s1 +. (x1 *. Array.unsafe_get tb (j1 + 1)) in
      let s2 = s2 +. (x1 *. Array.unsafe_get tb (j1 + 2)) in
      let s3 = s3 +. (x1 *. Array.unsafe_get tb (j1 + 3)) in
      let s0 = s0 +. (x2 *. Array.unsafe_get tb j2) in
      let s1 = s1 +. (x2 *. Array.unsafe_get tb (j2 + 1)) in
      let s2 = s2 +. (x2 *. Array.unsafe_get tb (j2 + 2)) in
      let s3 = s3 +. (x2 *. Array.unsafe_get tb (j2 + 3)) in
      Array.unsafe_set acc i0 (s0 +. (x3 *. Array.unsafe_get tb j3));
      Array.unsafe_set acc (i0 + 1)
        (s1 +. (x3 *. Array.unsafe_get tb (j3 + 1)));
      Array.unsafe_set acc (i0 + 2)
        (s2 +. (x3 *. Array.unsafe_get tb (j3 + 2)));
      Array.unsafe_set acc (i0 + 3)
        (s3 +. (x3 *. Array.unsafe_get tb (j3 + 3)));
      i := i0 + 4;
      j := j0 + 4
    done;
    for i = !i to stop - 1 do
      let j0 = b + (i - o) in
      let s = Array.unsafe_get acc i +. (x0 *. Array.unsafe_get tb j0) in
      let s = s +. (x1 *. Array.unsafe_get tb (j0 + b1)) in
      let s = s +. (x2 *. Array.unsafe_get tb (j0 + b2)) in
      Array.unsafe_set acc i (s +. (x3 *. Array.unsafe_get tb (j0 + b3)))
    done
  | Unit_a ->
    let y0 = Array.unsafe_get tb b
    and y1 = Array.unsafe_get tb (b + b1)
    and y2 = Array.unsafe_get tb (b + b2)
    and y3 = Array.unsafe_get tb (b + b3) in
    let i = ref o and j = ref a in
    while !i + 4 <= stop do
      let i0 = !i and j0 = !j in
      let j1 = j0 + a1 and j2 = j0 + a2 and j3 = j0 + a3 in
      let s0 = Array.unsafe_get acc i0 +. (Array.unsafe_get ta j0 *. y0) in
      let s1 =
        Array.unsafe_get acc (i0 + 1) +. (Array.unsafe_get ta (j0 + 1) *. y0)
      in
      let s2 =
        Array.unsafe_get acc (i0 + 2) +. (Array.unsafe_get ta (j0 + 2) *. y0)
      in
      let s3 =
        Array.unsafe_get acc (i0 + 3) +. (Array.unsafe_get ta (j0 + 3) *. y0)
      in
      let s0 = s0 +. (Array.unsafe_get ta j1 *. y1) in
      let s1 = s1 +. (Array.unsafe_get ta (j1 + 1) *. y1) in
      let s2 = s2 +. (Array.unsafe_get ta (j1 + 2) *. y1) in
      let s3 = s3 +. (Array.unsafe_get ta (j1 + 3) *. y1) in
      let s0 = s0 +. (Array.unsafe_get ta j2 *. y2) in
      let s1 = s1 +. (Array.unsafe_get ta (j2 + 1) *. y2) in
      let s2 = s2 +. (Array.unsafe_get ta (j2 + 2) *. y2) in
      let s3 = s3 +. (Array.unsafe_get ta (j2 + 3) *. y2) in
      Array.unsafe_set acc i0 (s0 +. (Array.unsafe_get ta j3 *. y3));
      Array.unsafe_set acc (i0 + 1)
        (s1 +. (Array.unsafe_get ta (j3 + 1) *. y3));
      Array.unsafe_set acc (i0 + 2)
        (s2 +. (Array.unsafe_get ta (j3 + 2) *. y3));
      Array.unsafe_set acc (i0 + 3)
        (s3 +. (Array.unsafe_get ta (j3 + 3) *. y3));
      i := i0 + 4;
      j := j0 + 4
    done;
    for i = !i to stop - 1 do
      let j0 = a + (i - o) in
      let s = Array.unsafe_get acc i +. (Array.unsafe_get ta j0 *. y0) in
      let s = s +. (Array.unsafe_get ta (j0 + a1) *. y1) in
      let s = s +. (Array.unsafe_get ta (j0 + a2) *. y2) in
      Array.unsafe_set acc i (s +. (Array.unsafe_get ta (j0 + a3) *. y3))
    done
  | Strided_a ->
    let y0 = Array.unsafe_get tb b
    and y1 = Array.unsafe_get tb (b + b1)
    and y2 = Array.unsafe_get tb (b + b2)
    and y3 = Array.unsafe_get tb (b + b3) in
    let j = ref a in
    for i = o to stop - 1 do
      let j0 = !j in
      let s = Array.unsafe_get acc i +. (Array.unsafe_get ta j0 *. y0) in
      let s = s +. (Array.unsafe_get ta (j0 + a1) *. y1) in
      let s = s +. (Array.unsafe_get ta (j0 + a2) *. y2) in
      Array.unsafe_set acc i (s +. (Array.unsafe_get ta (j0 + a3) *. y3));
      j := j0 + ga
    done
  | General ->
    let ja = ref a and jb = ref b in
    for i = o to stop - 1 do
      let j0 = !ja and k0 = !jb in
      let s =
        Array.unsafe_get acc i
        +. (Array.unsafe_get ta j0 *. Array.unsafe_get tb k0)
      in
      let s =
        s +. (Array.unsafe_get ta (j0 + a1) *. Array.unsafe_get tb (k0 + b1))
      in
      let s =
        s +. (Array.unsafe_get ta (j0 + a2) *. Array.unsafe_get tb (k0 + b2))
      in
      Array.unsafe_set acc i
        (s +. (Array.unsafe_get ta (j0 + a3) *. Array.unsafe_get tb (k0 + b3)));
      ja := j0 + ga;
      jb := k0 + gb
    done

(* Step the odometer [ctr] over the run extents [ext] to the next reduce
   point in ascending lexicographic order, and return the run that
   stepped; every run inside it rewinds to its first point.  The current
   point must not be the last. *)
let advance ext ctr =
  let k = ref (Array.length ext - 1) in
  while Array.unsafe_get ctr !k + 1 = Array.unsafe_get ext !k do
    Array.unsafe_set ctr !k 0;
    decr k
  done;
  Array.unsafe_set ctr !k (Array.unsafe_get ctr !k + 1);
  !k

let check_inputs p inputs =
  Array.mapi
    (fun i name ->
      match List.assoc_opt name inputs with
      | None -> invalid_arg (Fmt.str "Compiled: missing input %s" name)
      | Some t ->
        if Tensor.shape t <> p.tshapes.(i) then
          invalid_arg
            (Fmt.str "Compiled: input %s has shape [%a], declared [%a]" name
               Fmt.(list ~sep:(any ";") int)
               (Tensor.shape t)
               Fmt.(list ~sep:(any ";") int)
               p.tshapes.(i));
        Tensor.unsafe_data t)
    p.tensors

let run_compiled p inputs =
  Trace.with_span ~name:"exec.compiled.run" @@ fun () ->
  Trace.Counter.incr c_runs;
  let { n; m; n_sites = ns; _ } = p in
  let data = check_inputs p inputs in
  let out = Tensor.create (Compute.output_shape p.compute) in
  let coverage = Tensor.create (Compute.output_shape p.compute) in
  let out_data = Tensor.unsafe_data out in
  let cov_data = Tensor.unsafe_data coverage in
  let last = n - 1 in
  let vars = Array.make (n + m) 0 in
  let iregs = Array.make p.n_iregs 0 in
  let fregs = Array.make (max 1 p.n_fregs) 0.0 in
  let cell = Array.make 1 0.0 in
  (* Tile buffers, for a group of at most [cap] rows of [width] elements:
     the accumulators (row h's element e at [h * cnt + e]), and per row
     its first element's output offset, its spatial coordinates and its
     site offsets at that element. *)
  let width = min p.tile.(last) p.sext.(last) in
  let box = ref 1 in
  for i = 0 to last - 1 do
    box := !box * min p.tile.(i) p.sext.(i)
  done;
  let cap = max 1 (min !box (tile_elements / width)) in
  let acc = Array.make (cap * width) 0.0 in
  let roff = Array.make cap 0 in
  let rvars = Array.make (cap * n) 0 in
  let rbase = Array.make (cap * ns) 0 in
  let lanes =
    match p.epilogue with
    | Lanes _ -> Array.make (p.n_fregs * width) 0.0
    | Plain | Scalar _ -> [||]
  in
  let combine a v = if p.sum then a +. v else Float.max a v in
  (* Reduction.  The kernel's chunked loops (level-1 chunks, level-0
     sub-chunks) visit the reduce points in ascending lexicographic order
     and accumulate sequentially: the chunk structure is kernel-shaped
     bookkeeping with no numeric effect, so the VM walks the flat nest
     (as the run table when it has one) in that same order.

     [reduce rows cnt] reduces the group's [rows] rows of [cnt] elements
     into [acc], which holds [init].  Kernel dispatch and site/tensor
     lookups are hoisted out of the hot path by building the closure once
     per run. *)
  let reduce =
    match p.reduction with
    | Per_point ->
      let rec points j i =
        if j = m then begin
          exec_int p.body_idx vars iregs;
          exec_float p.body_code p.fpool iregs fregs data cell;
          acc.(i) <- combine acc.(i) fregs.(0)
        end
        else
          for r = 0 to p.rext.(j) - 1 do
            vars.(n + j) <- r;
            points (j + 1) i
          done
      in
      fun rows cnt ->
        for h = 0 to rows - 1 do
          Array.blit rvars (h * n) vars 0 n;
          let c0 = vars.(last) in
          for e = 0 to cnt - 1 do
            vars.(last) <- c0 + e;
            points 0 ((h * cnt) + e)
          done
        done
    | Runs { ext; delta; kernel = Mac (sa, sb, pass) } ->
      (* The whole group per walk of the run table: at each reduce point
         (four at a time, drawn across run boundaries by an odometer),
         every element of every row, so the operand strip a point reads
         serves all the group's rows. *)
      let ta = data.(p.site_tensor.(sa)) and tb = data.(p.site_tensor.(sb)) in
      let ga = p.step.(sa) and gb = p.step.(sb) in
      let runs = Array.length ext in
      let points = Array.fold_left ( * ) 1 ext in
      (* A site's offset change when run k steps and the runs inside it
         rewind. *)
      let carry s =
        Array.init runs (fun k ->
            let c = ref delta.(k).(s) in
            for j = k + 1 to runs - 1 do
              c := !c - ((ext.(j) - 1) * delta.(j).(s))
            done;
            !c)
      in
      let ca = carry sa and cb = carry sb in
      let ctr = Array.make runs 0 in
      fun rows cnt ->
        Array.fill ctr 0 runs 0;
        (* [a], [b]: the current point's run offsets; [left] counts the
           points not yet reduced, the current one included. *)
        let a = ref 0 and b = ref 0 and left = ref points in
        while !left >= 4 do
          let a0 = !a and b0 = !b in
          let k = advance ext ctr in
          let a1 = a0 + ca.(k) and b1 = b0 + cb.(k) in
          let k = advance ext ctr in
          let a2 = a1 + ca.(k) and b2 = b1 + cb.(k) in
          let k = advance ext ctr in
          let a3 = a2 + ca.(k) and b3 = b2 + cb.(k) in
          for h = 0 to rows - 1 do
            mac_row4 pass acc (h * cnt) cnt ta
              (a0 + Array.unsafe_get rbase ((h * ns) + sa))
              (a1 - a0) (a2 - a0) (a3 - a0) ga tb
              (b0 + Array.unsafe_get rbase ((h * ns) + sb))
              (b1 - b0) (b2 - b0) (b3 - b0) gb
          done;
          left := !left - 4;
          if !left > 0 then begin
            let k = advance ext ctr in
            a := a3 + ca.(k);
            b := b3 + cb.(k)
          end
        done;
        (* The last [points mod 4] one at a time. *)
        while !left > 0 do
          for h = 0 to rows - 1 do
            mac_row acc (h * cnt) cnt ta
              (!a + Array.unsafe_get rbase ((h * ns) + sa))
              ga tb
              (!b + Array.unsafe_get rbase ((h * ns) + sb))
              gb
          done;
          decr left;
          if !left > 0 then begin
            let k = advance ext ctr in
            a := !a + ca.(k);
            b := !b + cb.(k)
          end
        done
    | Runs { ext; delta; kernel = (Fold _ | Generic) as kernel } ->
      let n_body = Array.length delta.(0) in
      let inner = Array.length ext - 1 in
      let len = ext.(inner) and d = delta.(inner) in
      (* Outer runs step the site offset registers and restore them;
         the innermost run is the kernel's, into [acc.(i)]. *)
      let rec walk kernel i k =
        if k = inner then kernel i
        else begin
          let dk = delta.(k) in
          for _ = 1 to ext.(k) do
            walk kernel i (k + 1);
            for s = 0 to n_body - 1 do
              iregs.(s) <- iregs.(s) + dk.(s)
            done
          done;
          for s = 0 to n_body - 1 do
            iregs.(s) <- iregs.(s) - (ext.(k) * dk.(s))
          done
        end
      in
      let one =
        match kernel with
        | Fold sa ->
          let ta = data.(p.site_tensor.(sa)) in
          let dk = d.(sa) in
          fun i ->
            let o = ref iregs.(sa) in
            let s = ref (Array.unsafe_get acc i) in
            if p.sum then
              for _ = 1 to len do
                s := !s +. Array.unsafe_get ta !o;
                o := !o + dk
              done
            else
              for _ = 1 to len do
                s := Float.max !s (Array.unsafe_get ta !o);
                o := !o + dk
              done;
            Array.unsafe_set acc i !s
        | Generic | Mac _ ->
          fun i ->
            for _ = 1 to len do
              exec_float p.body_code p.fpool iregs fregs data cell;
              acc.(i) <- combine acc.(i) fregs.(0);
              for s = 0 to n_body - 1 do
                iregs.(s) <- iregs.(s) + d.(s)
              done
            done;
            for s = 0 to n_body - 1 do
              iregs.(s) <- iregs.(s) - (len * d.(s))
            done
      in
      fun rows cnt ->
        for h = 0 to rows - 1 do
          for e = 0 to cnt - 1 do
            for s = 0 to n_body - 1 do
              iregs.(s) <- rbase.((h * ns) + s) + (e * p.step.(s))
            done;
            walk one ((h * cnt) + e) 0
          done
        done
  in
  (* Scale, epilogue, store and coverage of the group: the epilogue runs
     over each row's lanes when it can, else per element (leaving its
     value in [acc]); each row is then stored in one loop. *)
  let finish rows cnt =
    for i = 0 to (rows * cnt) - 1 do
      Array.unsafe_set acc i (Array.unsafe_get acc i *. p.scale)
    done;
    for h = 0 to rows - 1 do
      let o = h * cnt in
      let src, so =
        match p.epilogue with
        | Plain -> (acc, o)
        | Lanes code ->
          exec_lanes code p.fpool lanes width cnt data rbase (h * ns) p.step
            acc o;
          (lanes, 0)
        | Scalar code ->
          Array.blit rvars (h * n) vars 0 n;
          let c0 = vars.(last) in
          for e = 0 to cnt - 1 do
            vars.(last) <- c0 + e;
            cell.(0) <- acc.(o + e);
            exec_int p.epi_idx vars iregs;
            exec_float code p.fpool iregs fregs data cell;
            acc.(o + e) <- fregs.(0)
          done;
          (acc, o)
      in
      let off = roff.(h) in
      for e = 0 to cnt - 1 do
        Array.unsafe_set out_data (off + e) (Array.unsafe_get src (so + e));
        Array.unsafe_set cov_data (off + e)
          (Array.unsafe_get cov_data (off + e) +. 1.0)
      done
    done
  in
  (* Output space as row tiles (the block box, widened along the last two
     axes), tiles in row-major order over the grid, rows in row-major
     order within a tile.  [start] is the current tile's corner.  Each row
     gathered runs the body offset program (for the run table) and the
     epilogue's (for its lanes) once, at its first element; a full group
     is reduced and stored at once. *)
  let runs = match p.reduction with Runs _ -> true | Per_point -> false in
  let lanes_epi = match p.epilogue with Lanes _ -> true | _ -> false in
  let tiled =
    match p.reduction with Runs { kernel = Mac _; _ } -> true | _ -> false
  in
  let start = Array.make n 0 in
  let rows = ref 0 and elements = ref 0 in
  let flush () =
    let cnt = min p.tile.(last) (p.sext.(last) - start.(last)) in
    Array.fill acc 0 (!rows * cnt) p.init;
    reduce !rows cnt;
    finish !rows cnt;
    elements := !elements + (!rows * cnt);
    rows := 0
  in
  let rec gather i off =
    if i = last then begin
      let h = !rows in
      vars.(last) <- start.(last);
      Array.blit vars 0 rvars (h * n) n;
      roff.(h) <- off + start.(last);
      if runs then exec_int p.body_idx vars iregs;
      if lanes_epi then exec_int p.epi_idx vars iregs;
      Array.blit iregs 0 rbase (h * ns) ns;
      rows := h + 1;
      if !rows = cap then flush ()
    end
    else
      for c = start.(i) to min (start.(i) + p.tile.(i)) p.sext.(i) - 1 do
        vars.(i) <- c;
        gather (i + 1) (off + (c * p.out_strides.(i)))
      done
  in
  let rec tiles i =
    if i = n then begin
      gather 0 0;
      if !rows > 0 then flush ()
    end
    else begin
      let b = ref 0 in
      while !b < p.sext.(i) do
        start.(i) <- !b;
        tiles (i + 1);
        b := !b + p.tile.(i)
      done
    end
  in
  tiles 0;
  Trace.Counter.add c_points (!elements * Array.fold_left ( * ) 1 p.rext);
  Trace.Counter.add c_elements (Compute.output_points p.compute);
  Trace.Counter.add c_batched (if tiled then !elements else 0);
  { Scheduled.output = out; coverage }

let run etir inputs = run_compiled (compile etir) inputs

let pp_reduction ppf p =
  match p.reduction with
  | Per_point -> Fmt.string ppf "per-point offsets"
  | Runs { ext; kernel; _ } ->
    Fmt.pf ppf "reduce runs [%a] %s"
      Fmt.(array ~sep:(any ";") int)
      ext
      (match kernel with
      | Mac (_, _, Unit_b) -> "mac unit-step B"
      | Mac (_, _, Unit_a) -> "mac unit-step A"
      | Mac (_, _, Strided_a) -> "mac strided A"
      | Mac (_, _, General) -> "mac general"
      | Fold _ -> "fold"
      | Generic -> "generic")

let pp ppf p =
  Fmt.pf ppf
    "compiled{%s: %d sites, body %d+%d words, epi %s, %a, row tile [%a], %d \
     iregs, %d fregs}"
    (Compute.name p.compute) p.n_sites
    (Array.length p.body_idx)
    (Array.length p.body_code)
    (match p.epilogue with
    | Plain -> "none"
    | Lanes c -> Fmt.str "%d words" (Array.length c)
    | Scalar c -> Fmt.str "%d words per element" (Array.length c))
    pp_reduction p
    Fmt.(array ~sep:(any ";") int)
    p.tile p.n_iregs p.n_fregs
