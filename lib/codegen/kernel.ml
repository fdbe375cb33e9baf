(* Typed CUDA kernel tree and its printer.

   The printed layout is fixed: three header lines, one line per shared
   slice and block origin, the accumulator (three lines), the body, the
   two-line epilogue and the closing brace.  [iter] numbers statements by
   the same layout [print] emits, so a diagnostic's "kernel line N" is the
   line the node prints on without printing it. *)

open Tensor_lang

type coord = X | Y | Z | Fold of { stride : int; extent : int }

type role = Chunk of int | Staging | Stripe | Element | Unrolled

type loop = { role : role; var : string; bound : int; thread_dependent : bool }

type stmt =
  | Loop of loop * stmt list
  | Comment of string
  | Stage of string
  | Barrier
  | Spatial_index of { axis : string; threads : int; thread : coord; width : int }
  | Reduce_index of string
  | Accumulate of { combine : Compute.combine; value : Expr.t }

type store = {
  out : string;
  axes : string list;
  scale : float;
  epilogue : Expr.t option;
}

type host = { launch : Launch.t; callee : string }

type t = {
  source : string Lazy.t;
  symbol : string;
  inputs : (string * Dtype.t) list;
  output : string * Dtype.t;
  shared : (string * int) list;
  origins : (string * coord * int) list;
  acc : int;
  init : float;
  body : stmt list;
  store : store;
  host : host;
}

(* ---------- layout ---------- *)

(* A staging loop prints its body on its own line; every other loop opens
   a brace block ([Unrolled] adds a pragma line before and a comment line
   after). *)
let rec height = function
  | Loop ({ role = Staging; _ }, _) -> 1
  | Loop ({ role; _ }, body) ->
    let frame = match role with Unrolled -> 4 | _ -> 2 in
    List.fold_left (fun acc s -> acc + height s) frame body
  | Comment _ | Stage _ | Barrier | Spatial_index _ | Reduce_index _
  | Accumulate _ ->
    1

let shared_line i = 4 + i
let acc_line t = shared_line (List.length t.shared + List.length t.origins)

let iter t f =
  let rec go line loops = function
    | [] -> ()
    | s :: rest ->
      f ~line ~loops s;
      (match s with
      | Loop (({ role = Staging; _ } as l), body) ->
        List.iter (fun b -> f ~line ~loops:(l :: loops) b) body
      | Loop (l, body) ->
        go (line + match l.role with Unrolled -> 2 | _ -> 1) (l :: loops) body
      | _ -> ());
      go (line + height s) loops rest
  in
  go (acc_line t + 3) [] t.body

(* ---------- printer ---------- *)

let indices_to_c bindings indices =
  String.concat ""
    (List.map
       (fun idx -> Printf.sprintf "[%s]" (Index.to_string (Index.subst ~bindings idx)))
       indices)

(* [special] renders selected accesses directly (the fused epilogue's
   accumulator read); everything else is a plain indexed load. *)
let rec expr_to_c ?(special = fun _ -> None) bindings (expr : Expr.t) =
  let to_c e = expr_to_c ~special bindings e in
  match expr with
  | Expr.Imm f -> Printf.sprintf "%gf" f
  | Expr.Read access -> (
    match special access with
    | Some s -> s
    | None ->
      Access.tensor access ^ indices_to_c bindings (Access.indices access))
  | Expr.Neg a -> Printf.sprintf "(-%s)" (to_c a)
  | Expr.Add (a, b) -> Printf.sprintf "(%s + %s)" (to_c a) (to_c b)
  | Expr.Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_c a) (to_c b)
  | Expr.Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_c a) (to_c b)
  | Expr.Div (a, b) -> Printf.sprintf "(%s / %s)" (to_c a) (to_c b)
  | Expr.Max (a, b) -> Printf.sprintf "fmaxf(%s, %s)" (to_c a) (to_c b)
  | Expr.Min (a, b) -> Printf.sprintf "fminf(%s, %s)" (to_c a) (to_c b)

let coord_to_c base = function
  | X -> base ^ ".x"
  | Y -> base ^ ".y"
  | Z -> base ^ ".z"
  | Fold { stride; extent } -> Printf.sprintf "(%s.z / %d %% %d)" base stride extent

let header buf l =
  Printf.bprintf buf "for (int %s = %s; %s < %d; " l.var
    (if l.thread_dependent then "threadIdx.x" else "0")
    l.var l.bound;
  match l.role with
  | Chunk step -> Printf.bprintf buf "%s += %d)" l.var step
  | Staging -> Printf.bprintf buf "%s += blockDim.x)" l.var
  | Stripe | Element | Unrolled -> Printf.bprintf buf "++%s)" l.var

(* A statement's text on one line, without indentation. *)
let rec inline buf stmt =
  let body stmts =
    List.iter (fun s -> Buffer.add_char buf ' '; inline buf s) stmts
  in
  match stmt with
  | Loop (({ role = Staging; _ } as l), stmts) ->
    header buf l;
    body stmts
  | Loop (l, stmts) ->
    header buf l;
    Buffer.add_string buf " {";
    body stmts;
    Buffer.add_string buf " }"
  | Comment c -> Printf.bprintf buf "// %s" c
  | Stage t -> Printf.bprintf buf "smem_%s[s] = %s[/* level-1 slice offset */ s];" t t
  | Barrier -> Buffer.add_string buf "__syncthreads();"
  | Spatial_index { axis = a; threads; thread; width } ->
    Printf.bprintf buf "const int %s = %s_block + ((%s_vt * %d + %s) * %d) + %s_e;"
      a a a threads (coord_to_c "threadIdx" thread) width a
  | Reduce_index a -> Printf.bprintf buf "const int %s = %s_c1 + %s_u;" a a a
  | Accumulate { combine = Compute.Sum; value } ->
    Printf.bprintf buf "acc[0] += %s;" (expr_to_c [] value)
  | Accumulate { combine = Compute.Max_combine; value } ->
    Printf.bprintf buf "acc[0] = fmaxf(acc[0], %s);" (expr_to_c [] value)

let print t =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  let param ~const (name, dtype) =
    Printf.sprintf "%s%s* __restrict__ %s"
      (if const then "const " else "")
      (Dtype.c_name dtype) name
  in
  pr "// generated from ETIR %s\n" (Lazy.force t.source);
  pr "// launch: %s\n" (Fmt.str "%a" Launch.pp t.host.launch);
  pr "extern \"C\" __global__ void %s(%s) {\n" t.symbol
    (String.concat ", "
       (List.map (param ~const:true) t.inputs @ [ param ~const:false t.output ]));
  List.iter
    (fun (tensor, elems) ->
      pr "  __shared__ float smem_%s[%d];  // level-1 tile\n" tensor elems)
    t.shared;
  List.iter
    (fun (axis, c, tile) ->
      pr "  const int %s_block = %s * %d;\n" axis (coord_to_c "blockIdx" c) tile)
    t.origins;
  pr "  float acc[%d];\n" t.acc;
  pr "  #pragma unroll\n  for (int i = 0; i < %d; ++i) acc[i] = %gf;\n" t.acc
    t.init;
  (* Chunk loops sit at the kernel's indentation; everything else in the
     body is printed one level in. *)
  let rec stmt = function
    | Loop (({ role = Chunk _; _ } as l), body) ->
      pr "  ";
      header buf l;
      pr " {\n";
      List.iter stmt body;
      pr "  }\n"
    | Loop (({ role = Stripe | Element | Unrolled; _ } as l), body) ->
      if l.role = Unrolled then pr "    #pragma unroll\n";
      pr "    ";
      header buf l;
      pr " {%s\n" (if l.role = Stripe then "  // vthread stripes" else "");
      List.iter stmt body;
      pr "    }\n";
      if l.role = Unrolled then pr "    // end reduce element\n"
    | s ->
      pr "    ";
      inline buf s;
      pr "\n"
  in
  List.iter stmt t.body;
  let s = t.store in
  let acc_c =
    if s.scale = 1.0 then "acc[0]" else Printf.sprintf "(acc[0] * %gf)" s.scale
  in
  let coords = String.concat "" (List.map (fun a -> "[" ^ a ^ "_block]") s.axes) in
  (match s.epilogue with
  | None ->
    pr "  // epilogue: write back the accumulator tile\n";
    pr "  %s%s = %s;\n" s.out coords acc_c
  | Some e ->
    (* The fused tail reads the accumulator where it reads the output. *)
    let bindings = List.map (fun a -> (a, Index.var (a ^ "_block"))) s.axes in
    let special access =
      if Access.tensor access = s.out then Some acc_c else None
    in
    pr "  // epilogue: fused pointwise tail over the accumulator tile\n";
    pr "  %s%s = %s;\n" s.out coords (expr_to_c ~special bindings e));
  pr "}\n";
  Buffer.contents buf

let print_host t =
  let l = t.host.launch in
  let gx, gy, gz = l.Launch.grid and bx, by, bz = l.Launch.block in
  Printf.sprintf
    "dim3 grid(%d, %d, %d);\ndim3 block(%d, %d, %d);\n%s<<<grid, block, %d>>>(%s);\n"
    gx gy gz bx by bz t.host.callee l.Launch.smem_bytes
    (String.concat ", " (List.map fst t.inputs @ [ fst t.output ]))
