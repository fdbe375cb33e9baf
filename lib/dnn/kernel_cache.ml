(* Dynamic optimizing system — the paper's ongoing-work direction made
   concrete: a kernel cache that serves dynamic-shape inference.

   On a lookup the cache
   - returns the exact kernel when the shape was seen before (hit);
   - otherwise warm-starts Gensor from the structurally nearest cached
     schedule (warm miss: a quarter-budget refinement), falling back to a
     full cold construction when no compatible schedule exists (cold miss).

   The cache is two-tier: L1 is this in-memory table, L2 an optional
   persistent {!Artifact.Store}.  At [create] every store entry tuned for
   the same device is preloaded into L1 — so a second process starts with
   exact hits and warm starts instead of cold constructions — and every
   construction is written through, making its cost a one-time expense per
   (device, operator, shape) rather than per process.

   This turns per-shape optimisation cost from "seconds per new shape" into
   "seconds once per operator family", which is what real-time
   re-optimisation of dynamic networks needs. *)

open Tensor_lang

type entry = {
  compute : Compute.t;
  etir : Sched.Etir.t;
  metrics : Costmodel.Metrics.t;
  cert : Verify.Cert.t option;
}

type lookup = Hit | Cert_hit | Warm_miss | Cold_miss

type stats = {
  hits : int;
  cert_hits : int;
  cert_rejects : int;
  warm_misses : int;
  cold_misses : int;
  construction_steps : int;
  store_hits : int;
  store_writes : int;
}

(* Internal mutable counters; {!stats} snapshots them. *)
type counters = {
  mutable c_hits : int;
  mutable c_cert_hits : int;
  mutable c_cert_rejects : int;
  mutable c_warm_misses : int;
  mutable c_cold_misses : int;
  mutable c_construction_steps : int;
  mutable c_store_hits : int;
  mutable c_store_writes : int;
}

(* Store identity of schedules this cache produces. *)
let method_name = "gensor"

(* Process-wide mirrors of the per-instance counters in the unified
   registry (Trace.Counter): traces and bench arms read kernel-cache
   behaviour from the same place as every other layer. *)
let c_hits = Trace.Counter.make "kcache.hits"
let c_warm_misses = Trace.Counter.make "kcache.warm_misses"
let c_cold_misses = Trace.Counter.make "kcache.cold_misses"
let c_store_hits = Trace.Counter.make "kcache.store_hits"
let c_store_writes = Trace.Counter.make "kcache.store_writes"

(* Certificate-gated dispatch outcomes.  These live in the [verify.*]
   namespace: they measure the legality certificates doing their job at the
   cache boundary, not cache mechanics. *)
let c_cert_hits = Trace.Counter.make "verify.cert.hit"
let c_cert_rejects = Trace.Counter.make "verify.cert.reject"

type t = {
  hw : Hardware.Gpu_spec.t;
  config : Gensor.Optimizer.config;
  certify : bool;
  entries : (string, entry) Hashtbl.t;            (* exact shape key *)
  families : (string, entry list ref) Hashtbl.t;  (* structural key *)
  counters : counters;
  store : Artifact.Store.t option;
  device_fp : string;
  preloaded : (string, unit) Hashtbl.t;  (* shape keys that came from L2 *)
}

(* Structured keys.  The operator name travels OCaml-quoted ([%S]), so a
   name containing the joiner characters ('|', 'x', ',', '~') cannot
   collide with the structural part; axis markers carry the kind, so a
   spatial "k" and a reduce "k" stay distinct. *)

(* Fused-tail marker: composite names alone cannot distinguish two fusions
   of the same ops with different tail expressions, so family keys of
   computes carrying an epilogue append its extent-free structural hash
   (stable across a shape family, so warm starts still group fused
   kernels). *)
let epilogue_marker compute =
  match Compute.epilogue_fingerprint compute with
  | None -> ""
  | Some fp -> Fmt.str " ep:%016Lx" fp

(* Exact key: quoted name plus every axis as kind-marker + extent, then the
   full structural fingerprint (as in [Model.distinct_key]).  Name and
   extents alone alias computes that differ only in input shapes or body —
   a stride-2 depthwise conv and its stride-1 sibling — and an exact hit
   would serve one the other's schedule. *)
let shape_key compute =
  Fmt.str "%s %s fp:%016Lx"
    (Printf.sprintf "%S" (Compute.name compute))
    (String.concat "x"
       (List.map
          (fun ax ->
            Fmt.str "%s%d"
              (if Axis.is_reduce ax then "r" else "s")
              (Axis.extent ax))
          (Compute.axes compute)))
    (Compute.fingerprint compute)

(* Family key: quoted name plus the axis *structure* (quoted names and
   kinds), ignoring extents — schedules retarget within a family. *)
let family_key compute =
  Fmt.str "%s %s%s"
    (Printf.sprintf "%S" (Compute.name compute))
    (String.concat ","
       (List.map
          (fun ax ->
            Fmt.str "%s%s"
              (Printf.sprintf "%S" (Axis.name ax))
              (if Axis.is_reduce ax then "~" else ""))
          (Compute.axes compute)))
    (epilogue_marker compute)

let family_of t fkey =
  match Hashtbl.find_opt t.families fkey with
  | Some family -> family
  | None ->
    let family = ref [] in
    Hashtbl.add t.families fkey family;
    family

let remember t entry =
  let key = shape_key entry.compute in
  Hashtbl.replace t.entries key entry;
  let family = family_of t (family_key entry.compute) in
  family := entry :: !family;
  key

(* L2 -> L1: adopt every store entry tuned by this method for this device.
   Entries for other devices or methods are left alone. *)
let preload t store =
  List.iter
    (fun (_, (r : Artifact.Record.t)) ->
      if
        String.equal r.device_fingerprint t.device_fp
        && String.equal r.method_name method_name
      then begin
        let key =
          remember t
            { compute = r.compute; etir = r.etir; metrics = r.metrics;
              cert = r.cert }
        in
        Hashtbl.replace t.preloaded key ()
      end)
    (Artifact.Store.entries store)

let create ?(config = Gensor.Optimizer.default_config) ?(certify = false)
    ?store ~hw () =
  let t =
    { hw; config; certify;
      entries = Hashtbl.create 64; families = Hashtbl.create 16;
      counters =
        { c_hits = 0; c_cert_hits = 0; c_cert_rejects = 0;
          c_warm_misses = 0; c_cold_misses = 0;
          c_construction_steps = 0; c_store_hits = 0; c_store_writes = 0 };
      store; device_fp = Artifact.Gpu_codec.fingerprint hw;
      preloaded = Hashtbl.create 16 }
  in
  Option.iter (preload t) store;
  t

(* Nearest family member by log-space distance over the axis extents. *)
let nearest_in_family family compute =
  let extents c = List.map Axis.extent (Compute.axes c) in
  let target = extents compute in
  let distance candidate =
    List.fold_left2
      (fun acc a b ->
        acc
        +. Float.abs (Float.log2 (float_of_int a) -. Float.log2 (float_of_int b)))
      0.0 target
      (extents candidate.compute)
  in
  match family with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun best candidate ->
           if distance candidate < distance best then candidate else best)
         first rest)

let write_through t entry ~steps =
  match t.store with
  | None -> ()
  | Some store ->
    let r =
      Artifact.Record.v ~method_name ~seed:t.config.Gensor.Optimizer.seed
        ~steps ?cert:entry.cert ~device:t.hw ~etir:entry.etir
        ~metrics:entry.metrics ()
    in
    ignore (Artifact.Store.put store r : string);
    t.counters.c_store_writes <- t.counters.c_store_writes + 1;
    Trace.Counter.incr c_store_writes

(* [key] is [shape_key compute], computed once per lookup by the caller. *)
let compile_keyed t ~key compute =
  Trace.with_span ~name:"kcache.compile" ~args:[ ("shape", key) ] @@ fun () ->
  match Hashtbl.find_opt t.entries key with
  | Some entry ->
    t.counters.c_hits <- t.counters.c_hits + 1;
    Trace.Counter.incr c_hits;
    if Hashtbl.mem t.preloaded key then begin
      t.counters.c_store_hits <- t.counters.c_store_hits + 1;
      Trace.Counter.incr c_store_hits
    end;
    (entry, Hit)
  | None ->
    let warm = nearest_in_family !(family_of t (family_key compute)) compute in
    let result =
      match warm with
      | Some seed ->
        Gensor.Optimizer.optimize ~config:t.config ~warm_start:seed.etir
          ~hw:t.hw compute
      | None -> Gensor.Optimizer.optimize ~config:t.config ~hw:t.hw compute
    in
    (match warm with
    | Some _ ->
      t.counters.c_warm_misses <- t.counters.c_warm_misses + 1;
      Trace.Counter.incr c_warm_misses
    | None ->
      t.counters.c_cold_misses <- t.counters.c_cold_misses + 1;
      Trace.Counter.incr c_cold_misses);
    t.counters.c_construction_steps <-
      t.counters.c_construction_steps + result.Gensor.Optimizer.states_explored;
    let cert =
      if t.certify then
        let outcome =
          Verify.Cert.certify ~hw:t.hw result.Gensor.Optimizer.etir
        in
        outcome.Verify.Cert.cert
      else None
    in
    let entry =
      { compute; etir = result.Gensor.Optimizer.etir;
        metrics = result.Gensor.Optimizer.metrics; cert }
    in
    ignore (remember t entry : string);
    write_through t entry ~steps:result.Gensor.Optimizer.states_explored;
    (entry, if warm = None then Cold_miss else Warm_miss)

let compile t compute = compile_keyed t ~key:(shape_key compute) compute

(* Certificate-gated dispatch: an unseen shape may be served by a family
   member whose legality certificate admits it — the cached schedule is
   retargeted and re-scored, with no construction at all.  A shape outside
   every certified region is *refused* (the reject counter records the
   refusal) and falls back to [compile]: a cached kernel is never
   dispatched beyond the region it was proved legal on. *)
let dispatch t compute =
  let key = shape_key compute in
  Trace.with_span ~name:"kcache.dispatch" ~args:[ ("shape", key) ]
  @@ fun () ->
  if Hashtbl.mem t.entries key then compile_keyed t ~key compute
  else begin
    let family = !(family_of t (family_key compute)) in
    let certified = List.filter (fun e -> e.cert <> None) family in
    let admitted =
      List.find_opt
        (fun e ->
          match e.cert with
          | Some c -> Result.is_ok (Verify.Cert.admits_compute c compute)
          | None -> false)
        certified
    in
    match admitted with
    | Some donor ->
      let etir = Sched.Etir.retarget donor.etir compute in
      let metrics = Costmodel.Model.evaluate ~hw:t.hw etir in
      t.counters.c_cert_hits <- t.counters.c_cert_hits + 1;
      Trace.Counter.incr c_cert_hits;
      let entry = { compute; etir; metrics; cert = donor.cert } in
      ignore (remember t entry : string);
      (entry, Cert_hit)
    | None ->
      if certified <> [] then begin
        t.counters.c_cert_rejects <- t.counters.c_cert_rejects + 1;
        Trace.Counter.incr c_cert_rejects
      end;
      compile_keyed t ~key compute
  end

let stats t =
  let c = t.counters in
  { hits = c.c_hits; cert_hits = c.c_cert_hits;
    cert_rejects = c.c_cert_rejects; warm_misses = c.c_warm_misses;
    cold_misses = c.c_cold_misses;
    construction_steps = c.c_construction_steps;
    store_hits = c.c_store_hits; store_writes = c.c_store_writes }

let size t = Hashtbl.length t.entries
let preloaded_count t = Hashtbl.length t.preloaded
