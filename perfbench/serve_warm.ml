(* serve-warm: the read side of the artifact store.  Set-up compiles the
   transformer graphs into a store and primes a certifying kernel cache
   with BERT at its largest shape and a seeded stream of sequence lengths;
   shapes the certificates refuse are constructed there, once.  One op is
   a restart with no search: reopen the store, serve every graph from it,
   rebuild the kernel cache and dispatch the same stream. *)

open Common

let batch = 8
let max_seq = 128
let repeats = 3

let networks () =
  [ Dnn.Transformer.bert_small_graph ~batch ~seq:max_seq ();
    Dnn.Transformer.gpt2_graph ~batch ~seq:max_seq () ]

let bert_computes seq =
  List.map Ops.Op.compute
    (Dnn.Model.distinct_ops (Dnn.Transformer.bert_small ~batch ~seq ()))

(* Every multiple of 16 up to [max_seq], [repeats] times, in seeded order:
   each seed serves the same shapes, so only the order of first sightings
   (certificate hits) and repeats (exact hits) changes. *)
let seqs ~seed =
  let rng = Random.State.make [| seed |] in
  let step = 16 in
  let a =
    Array.init (repeats * max_seq / step) (fun i ->
        step * (1 + (i mod (max_seq / step))))
  in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let setup ~seed ~dir =
  let config, method_ = gensor ~seed in
  let graphs = networks () in
  Parallel.Memo.clear_all ();
  let store_dir = fresh_dir dir in
  let store = Artifact.Store.open_ store_dir in
  List.iter
    (fun g ->
      ignore (Dnn.Runner.run_graph ~store ~jobs:1 ~hw method_ g
              : Dnn.Runner.graph_report))
    graphs;
  let stream = List.concat_map bert_computes (seqs ~seed) in
  let kc = Dnn.Kernel_cache.create ~config ~certify:true ~store ~hw () in
  List.iter
    (fun c -> ignore (Dnn.Kernel_cache.dispatch kc c))
    (bert_computes max_seq @ stream);
  let reset () = Parallel.Memo.clear_all () in
  let op () =
    let store =
      Layer.time "artifact.open" (fun () -> Artifact.Store.open_ store_dir)
    in
    let records = Artifact.Store.size store in
    Layer.note "artifact.records" (fun () -> float_of_int records);
    Layer.note "artifact.bytes" (fun () ->
        float_of_int (Artifact.Store.total_bytes store));
    let failures =
      ref
        (List.map (Fmt.str "store: %a" Artifact.Store.pp_issue)
           (Artifact.Store.issues store))
    in
    let fail msg = failures := !failures @ [ msg ] in
    let sim = ref 0.0 in
    List.iter
      (fun g ->
        let r =
          Layer.time "dnn.run_graph" (fun () ->
              Dnn.Runner.run_graph ~store ~jobs:1 ~hw method_ g)
        in
        if r.Dnn.Runner.g_cached <> r.Dnn.Runner.g_kernels then
          fail
            (Fmt.str "%s: %d of %d kernels missed the store" (Dnn.Graph.name g)
               (r.Dnn.Runner.g_kernels - r.Dnn.Runner.g_cached)
               r.Dnn.Runner.g_kernels);
        sim := !sim +. (r.Dnn.Runner.g_e2e_s *. 1e3))
      graphs;
    let kc =
      Layer.time "dnn.kcache_create" (fun () ->
          Dnn.Kernel_cache.create ~config ~certify:true ~store ~hw ())
    in
    Layer.time "dnn.dispatch" (fun () ->
        List.iter (fun c -> ignore (Dnn.Kernel_cache.dispatch kc c)) stream);
    let s = Dnn.Kernel_cache.stats kc in
    let constructions =
      s.Dnn.Kernel_cache.warm_misses + s.Dnn.Kernel_cache.cold_misses
    in
    Layer.note "dnn.dispatches" (fun () -> float_of_int (List.length stream));
    Layer.note "dnn.cert_hits" (fun () ->
        float_of_int s.Dnn.Kernel_cache.cert_hits);
    Layer.note "dnn.constructions" (fun () -> float_of_int constructions);
    if constructions > 0 then
      fail (Fmt.str "kernel cache constructed %d kernel(s)" constructions);
    if Artifact.Store.size store <> records then
      fail
        (Fmt.str "the op wrote the store (%d -> %d records)" records
           (Artifact.Store.size store));
    { failures = !failures;
      sim_ms = !sim;
      facts =
        [ ("records", records);
          ("hits", s.Dnn.Kernel_cache.hits);
          ("cert_hits", s.Dnn.Kernel_cache.cert_hits);
          ("constructions", constructions) ] }
  in
  { reset; op; tidy = ignore }
