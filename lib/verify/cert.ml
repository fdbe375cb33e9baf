(* Shape-parametric legality certificates: the symbolic tier of the
   verifier.

   [certify] lifts the concrete checks from one shape to a *region* of
   shapes.  The key structural fact it exploits: every capacity, launch and
   footprint quantity in this codebase is derived from the tile
   configuration through [stile_eff]/[rtile_eff] (the footprint plan reads
   tiles, not extents), which never consult the axis extents — so once the tile/thread structure is fixed and
   retargeting cannot clamp it, the §IV-C capacity verdict, the register
   and smem footprints, and the race obligations of the staged reduction
   are the same at every shape in the region.  Retargeting cannot clamp
   precisely when every symbolic extent stays at or above the top-level
   effective tile of its axis, so the certificate's region is

     declared box  ∧  (per symbolic axis)  stile_eff(top) ≤ s

   with divisibility *guards* ([t1 | s]) tracked separately: the emitted
   kernel carries no boundary predication, so a non-dividing shape overruns
   on the boundary tile — a Warning ("guard required") in the concrete
   verifier, and exactly the same debt region-wide.  Inside the region no
   axis is structurally broken, hence the concrete bounds pass can never
   produce an access [Error] (its access checks fire only on broken axes):
   error-freedom transfers to the whole region.  Race and lint read the
   kernel tree lowered at each state, which both corners of the region
   validate concretely.

   On top of the structural argument, the engine re-runs the access
   analysis in the {!Sym_interval} domain (affine forms over the shape
   symbols) to report region-wide guard obligations symbolically, and
   validates both the hi corner and the effective-lo corner of the region
   with the full concrete pipeline ({!Passes.run}) on retargeted states —
   certification is refused if either corner fails or the level-1 footprint
   is not invariant across the region. *)

open Tensor_lang
module Affine = Sym_interval.Affine

let ceil_div a b = (a + b - 1) / b

(* [lhs <= rhs] over the shape symbols. *)
type constr = { lhs : Affine.t; rhs : Affine.t }

(* [divisor | g_sym]: boundary-guard obligation, not an admission bound. *)
type guard = { divisor : int; g_sym : string }

type t = {
  device : string;
  syms : (string * Interval.t) list;
  constraints : constr list;
  guards : guard list;
  witness : (string * int) list;
  witness_sig : string;
}

type outcome = { cert : t option; diags : Diagnostic.t list }

let errd ~code ~loc fmt = Diagnostic.v ~code Diagnostic.Error Diagnostic.Cert ~loc fmt
let warnd ~code ~loc fmt = Diagnostic.v ~code Diagnostic.Warning Diagnostic.Cert ~loc fmt

exception Refused of Diagnostic.t list

(* ---------- admission ---------- *)

let admits cert valuation =
  let lookup name = List.assoc_opt name valuation in
  let rec axes_ok = function
    | [] -> Ok ()
    | (name, wext) :: rest -> (
      match lookup name with
      | None -> Error (Fmt.str "no extent given for axis %s" name)
      | Some v -> (
        match List.assoc_opt name cert.syms with
        | Some r ->
          if Interval.contains r v then axes_ok rest
          else
            Error
              (Fmt.str "%s = %d is outside the certified range %a" name v
                 Interval.pp r)
        | None ->
          if v = wext then axes_ok rest
          else
            Error
              (Fmt.str
                 "%s = %d differs from the certified witness %d (axis is not \
                  symbolic)" name v wext)))
  in
  match axes_ok cert.witness with
  | Error _ as e -> e
  | Ok () ->
    let env name =
      match lookup name with
      | Some v -> v
      | None -> List.assoc name cert.witness
    in
    List.fold_left
      (fun acc c ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if Affine.eval ~env c.lhs <= Affine.eval ~env c.rhs then Ok ()
          else
            Error
              (Fmt.str "constraint %a <= %a is violated" Affine.pp c.lhs
                 Affine.pp c.rhs))
      (Ok ()) cert.constraints

let admits_compute cert compute =
  let axes = Compute.axes compute in
  if List.map Axis.name axes <> List.map fst cert.witness then
    Error "axis structure differs from the certified witness"
  else admits cert (List.map (fun ax -> (Axis.name ax, Axis.extent ax)) axes)

let guards_hold cert valuation =
  List.fold_left
    (fun acc g ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match List.assoc_opt g.g_sym valuation with
        | None -> Error (Fmt.str "no extent given for axis %s" g.g_sym)
        | Some v ->
          if v mod g.divisor = 0 then Ok ()
          else
            Error (Fmt.str "%s = %d violates the guard %d | %s" g.g_sym v
                     g.divisor g.g_sym)))
    (Ok ()) cert.guards

(* ---------- certification ---------- *)

(* Upper bound of two affine forms over the box: the larger one when their
   order is decided over the whole region, else the constant hull. *)
let affine_max ~range a b =
  let d = Affine.bounds ~range (Affine.sub a b) in
  if Interval.lo d >= 0 then a
  else if Interval.hi d <= 0 then b
  else
    Affine.const
      (max
         (Interval.hi (Affine.bounds ~range a))
         (Interval.hi (Affine.bounds ~range b)))

let certify ?syms ~hw etir =
  Trace.with_span ~name:"verify.cert.certify" @@ fun () ->
  let compute = Sched.Etir.compute etir in
  let axes = Compute.axes compute in
  let witness = List.map (fun ax -> (Axis.name ax, Axis.extent ax)) axes in
  let wit_extent name = List.assoc name witness in
  let syms =
    match syms with
    | Some s -> List.sort (fun (a, _) (b, _) -> compare a b) s
    | None ->
      List.map (fun ax -> (Axis.name ax, Interval.v 1 (Axis.extent ax))) axes
  in
  let fail ds = raise (Refused ds) in
  try
    (* Spec sanity: every symbol names an axis, ranges are positive and
       contain the witness extent. *)
    List.iter
      (fun (s, r) ->
        if not (List.mem_assoc s witness) then
          fail
            [ errd ~code:"GSR-C01" ~loc:(Fmt.str "symbol %s" s)
                "shape symbol names no axis of %s" (Compute.name compute) ];
        if Interval.lo r < 1 then
          fail
            [ errd ~code:"GSR-C01" ~loc:(Fmt.str "symbol %s" s)
                "declared range %a admits non-positive extents" Interval.pp r ];
        if not (Interval.contains r (wit_extent s)) then
          fail
            [ errd ~code:"GSR-C01" ~loc:(Fmt.str "symbol %s" s)
                "witness extent %d lies outside the declared range %a"
                (wit_extent s) Interval.pp r ])
      syms;
    (* The witness itself must be structurally valid and concretely clean:
       certificates only generalise states the concrete verifier accepts. *)
    (match Sched.Etir.validate etir with
    | Ok () -> ()
    | Error m ->
      fail
        [ errd ~code:"GSR-C02" ~loc:"witness"
            "witness state fails structural validation: %s" m ]);
    let wdiags = Passes.run etir ~hw in
    (match Diagnostic.errors wdiags with
    | [] -> ()
    | errs ->
      fail
        (errd ~code:"GSR-C02" ~loc:"witness"
           "witness state fails concrete verification (%d error(s))"
           (List.length errs)
        :: errs));
    (* Per-axis structure: top-level effective tile (the clamp-free floor)
       and the level-1 tile (the divisibility guard). *)
    let top = Sched.Etir.num_levels etir in
    let spatial = Sched.Etir.spatial_axes etir in
    let reduce = Sched.Etir.reduce_axes etir in
    let dim_of arr name =
      let found = ref None in
      Array.iteri (fun i ax -> if Axis.name ax = name then found := Some i) arr;
      !found
    in
    let floor_of name =
      match dim_of spatial name with
      | Some i -> Sched.Etir.stile_eff etir ~level:top ~dim:i
      | None -> (
        match dim_of reduce name with
        | Some j -> Sched.Etir.rtile_eff etir ~level:top ~dim:j
        | None -> 1)
    in
    let guard_of name =
      match dim_of spatial name with
      | Some i -> Sched.Etir.stile_eff etir ~level:1 ~dim:i
      | None -> (
        match dim_of reduce name with
        | Some j -> Sched.Etir.rtile_eff etir ~level:1 ~dim:j
        | None -> 1)
    in
    (* Region: the declared box with its lo tightened to the clamp-free
       floor — below the floor, retargeting would shrink tiles and the
       shape-invariance argument (and hence the certificate) is void. *)
    let box =
      List.map
        (fun (s, r) ->
          let lo = max (Interval.lo r) (floor_of s) in
          if lo > Interval.hi r then
            fail
              [ errd ~code:"GSR-C03" ~loc:(Fmt.str "symbol %s" s)
                  "certified region is empty: clamp-free floor %d exceeds \
                   the declared upper bound %d" (floor_of s) (Interval.hi r) ];
          (s, Interval.v lo (Interval.hi r)))
        syms
    in
    let guards =
      List.filter_map
        (fun (s, _) ->
          let d = guard_of s in
          if d > 1 then Some { divisor = d; g_sym = s } else None)
        box
    in
    let range name =
      match List.assoc_opt name box with
      | Some r -> r
      | None -> Interval.point (wit_extent name)
    in
    (* Declared input extents as affine forms of the symbols (slack rule):
       the full-domain required index region is evaluated symbolically, and
       the declared extent is assumed to track it with the witness's slack.
       Exact for identity-style layouts (GEMM operands); any mismatch is
       caught fail-closed when the corner computes are rebuilt below. *)
    let full_env name =
      if List.mem_assoc name box then
        Sym_interval.v Affine.zero (Affine.add_const (-1) (Affine.sym name))
      else Sym_interval.of_interval (Interval.v 0 (wit_extent name - 1))
    in
    let wit_env name = wit_extent name in
    let accesses = Expr.accesses (Compute.body compute) in
    let declared_hi =
      List.map
        (fun inp ->
          let mine =
            List.filter
              (fun a -> Access.tensor a = inp.Compute.in_name)
              accesses
          in
          let forms =
            Array.of_list
              (List.mapi
                 (fun d dim_size ->
                   match mine with
                   | [] -> Affine.const (dim_size - 1)
                   | first :: rest ->
                     let hi_of a =
                       Sym_interval.hi
                         (Sym_interval.of_index ~env:full_env ~range
                            (List.nth (Access.indices a) d))
                     in
                     let req =
                       List.fold_left
                         (fun acc a -> affine_max ~range acc (hi_of a))
                         (hi_of first) rest
                     in
                     let slack =
                       dim_size - 1 - Affine.eval ~env:wit_env req
                     in
                     Affine.add_const slack req)
                 inp.Compute.in_shape)
          in
          (inp.Compute.in_name, forms))
        (Compute.inputs compute)
    in
    (* Symbolic access analysis: re-run the bounds pass's last-tile regions
       in the affine domain, assuming the divisibility guards (so the last
       level-1 tile starts at [s - t1]).  Residual overruns are the
       region-wide guard obligations. *)
    let obligations = ref [] in
    let sym_env ~thread name =
      let symbolic = List.mem_assoc name box in
      match dim_of spatial name with
      | Some i ->
        let ext = wit_extent name in
        let t1 = Sched.Etir.stile_eff etir ~level:1 ~dim:i in
        let t0 = Sched.Etir.stile etir ~level:0 ~dim:i in
        let v = Sched.Etir.vthread etir ~dim:i in
        let p = Sched.Etir.physical_threads_dim etir i in
        let width = if thread then p * v * ceil_div t0 (max v 1) else t1 in
        if symbolic then
          let lo = Affine.add_const (-t1) (Affine.sym name) in
          Sym_interval.v lo (Affine.add_const (width - 1) lo)
        else
          let o = (ceil_div ext t1 - 1) * t1 in
          Sym_interval.of_interval (Interval.v o (o + width - 1))
      | None -> (
        match dim_of reduce name with
        | Some j ->
          let ext = wit_extent name in
          let r1 = Sched.Etir.rtile_eff etir ~level:1 ~dim:j in
          let width =
            if thread then Sched.Etir.rtile_eff etir ~level:0 ~dim:j else r1
          in
          if symbolic then
            let lo = Affine.add_const (-r1) (Affine.sym name) in
            Sym_interval.v lo (Affine.add_const (width - 1) lo)
          else
            let o = (ceil_div ext r1 - 1) * r1 in
            Sym_interval.of_interval (Interval.v o (o + width - 1))
        | None -> invalid_arg (Fmt.str "Cert: unknown axis %s" name))
    in
    let check_access ~granularity ~env ~what ~tensor ~indices ~declared_his =
      List.iteri
        (fun d idx ->
          let region = Sym_interval.of_index ~env ~range idx in
          let lo_b = Affine.bounds ~range (Sym_interval.lo region) in
          if Interval.lo lo_b < 0 then
            obligations :=
              warnd ~code:"GSR-C04"
                ~loc:(Fmt.str "region, %s %s dim %d (%s)" what tensor d
                        granularity)
                "indices reach %d below the tensor origin somewhere in the \
                 region; guard required" (-Interval.lo lo_b)
              :: !obligations;
          let slackf = Affine.sub declared_his.(d) (Sym_interval.hi region) in
          let b = Affine.bounds ~range slackf in
          if Interval.lo b < 0 then
            obligations :=
              warnd ~code:"GSR-C04"
                ~loc:(Fmt.str "region, %s %s dim %d (%s)" what tensor d
                        granularity)
                "boundary tile overruns the declared extent by up to %d \
                 element(s) somewhere in the region; guard required"
                (-Interval.lo b)
              :: !obligations)
        indices
    in
    let out_declared_his =
      Array.of_list
        (List.map
           (fun ax ->
             let name = Axis.name ax in
             if List.mem_assoc name box then
               Affine.add_const (-1) (Affine.sym name)
             else Affine.const (wit_extent name - 1))
           (Compute.spatial_axes compute))
    in
    List.iter
      (fun (granularity, thread) ->
        let env = sym_env ~thread in
        List.iter
          (fun access ->
            let tensor = Access.tensor access in
            match List.assoc_opt tensor declared_hi with
            | None -> ()
            | Some declared_his ->
              check_access ~granularity ~env ~what:"read of" ~tensor
                ~indices:(Access.indices access) ~declared_his)
          accesses;
        check_access ~granularity ~env ~what:"write of"
          ~tensor:(Compute.out_name compute)
          ~indices:
            (List.map
               (fun ax -> Index.var (Axis.name ax))
               (Compute.spatial_axes compute))
          ~declared_his:out_declared_his)
      [ ("block tile", false); ("thread tile", true) ];
    (* Corner validation: rebuild the compute at each extreme valuation of
       the region, retarget the schedule onto it, and run the full concrete
       pipeline.  Capacity/footprint quantities must be invariant. *)
    let corner which pick =
      let valuation =
        List.map
          (fun (name, wext) ->
            match List.assoc_opt name box with
            | Some r -> (name, pick r)
            | None -> (name, wext))
          witness
      in
      if valuation = witness then []
      else
        let env name = List.assoc name valuation in
        match
          let axes' =
            List.map (fun ax -> Axis.with_extent ax (env (Axis.name ax))) axes
          in
          let inputs' =
            List.map
              (fun inp ->
                let forms = List.assoc inp.Compute.in_name declared_hi in
                { inp with
                  Compute.in_shape =
                    List.mapi
                      (fun d _ -> Affine.eval ~env forms.(d) + 1)
                      inp.Compute.in_shape })
              (Compute.inputs compute)
          in
          Compute.v ~name:(Compute.name compute) ~axes:axes' ~inputs:inputs'
            ~out_name:(Compute.out_name compute)
            ~out_dtype:(Compute.out_dtype compute) ~init:(Compute.init compute)
            ~combine:(Compute.combine compute) ~scale:(Compute.scale compute)
            ~body:(Compute.body compute) ()
        with
        | exception Invalid_argument m ->
          [ warnd ~code:"GSR-C05" ~loc:which
              "corner compute is rejected: %s" m ]
        | corner_compute -> (
          match Sched.Etir.retarget etir corner_compute with
          | exception Invalid_argument m ->
            [ warnd ~code:"GSR-C05" ~loc:which
                "schedule cannot be retargeted to the corner: %s" m ]
          | e' -> (
            match Diagnostic.errors (Passes.run e' ~hw) with
            | [] ->
              if
                Costmodel.Footprint.bytes_at e' ~level:1
                <> Costmodel.Footprint.bytes_at etir ~level:1
              then
                [ warnd ~code:"GSR-C05" ~loc:which
                    "level-1 footprint varies across the region (%d vs %d \
                     bytes): capacity is not shape-invariant"
                    (Costmodel.Footprint.bytes_at e' ~level:1)
                    (Costmodel.Footprint.bytes_at etir ~level:1) ]
              else []
            | errs ->
              (* The corner shape is hypothetical — only the certifier's own
                 region construction reached it, and refusing the certificate
                 already keeps dispatch away from it — so the refusal and the
                 spliced corner findings are warnings, not legality errors. *)
              warnd ~code:"GSR-C05" ~loc:which
                "concrete verification fails at the %s of the region (%d \
                 error(s))" which (List.length errs)
              :: List.map
                   (fun d -> { d with Diagnostic.severity = Diagnostic.Warning })
                   errs))
    in
    let corner_errs =
      corner "hi corner" Interval.hi @ corner "lo corner" Interval.lo
    in
    if corner_errs <> [] then fail corner_errs;
    let cert =
      { device = Hardware.Gpu_spec.name hw;
        syms = box;
        constraints = [];
        guards;
        witness;
        witness_sig = Sched.Etir.signature etir }
    in
    (* Defensive: the witness must admit itself. *)
    (match admits cert witness with
    | Ok () -> ()
    | Error m ->
      fail
        [ errd ~code:"GSR-C03" ~loc:"witness"
            "witness is excluded from its own region: %s" m ]);
    { cert = Some cert; diags = List.rev !obligations }
  with Refused ds -> { cert = None; diags = ds }

(* ---------- rendering ---------- *)

let pp_constr ppf c = Fmt.pf ppf "%a <= %a" Affine.pp c.lhs Affine.pp c.rhs
let pp_guard ppf g = Fmt.pf ppf "%d | %s" g.divisor g.g_sym

let pp_region ppf cert =
  let parts =
    List.map
      (fun (s, r) -> Fmt.str "%d <= %s <= %d" (Interval.lo r) s (Interval.hi r))
      cert.syms
    @ List.map (Fmt.str "%a" pp_constr) cert.constraints
  in
  Fmt.pf ppf "%s" (if parts = [] then "{witness}" else String.concat " /\\ " parts)

let pp ppf cert =
  Fmt.pf ppf "@[<v>certificate (device %s)@,witness: %s@,region: %a@,guards: %s@]"
    cert.device
    (String.concat " "
       (List.map (fun (n, e) -> Fmt.str "%s=%d" n e) cert.witness))
    pp_region cert
    (if cert.guards = [] then "none"
     else String.concat " /\\ " (List.map (Fmt.str "%a" pp_guard) cert.guards))
