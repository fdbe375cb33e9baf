(* Race/synchronisation pass over the staged shared-memory reduction.

   The kernel's reduction chunk has a fixed phase structure per
   iteration: (1) cooperative staging — every thread writes a stripe of each
   level-1 input slice into shared memory; (2) compute — every thread reads
   the whole staged slice.  Iterating the chunk adds the loop-carried
   wrap-around edge from phase 2 of iteration t to phase 1 of iteration t+1.

   The pass reads that structure from the kernel tree's outermost
   reduction-chunk loop as a happens-before problem over events (thread
   set, addresses, phase): staging writes by thread t cover the stripe
   {s : s ≡ t (mod blockDim)} of [0, elems-1]; compute reads cover all of
   [0, elems-1] from every thread.  Every thread reads the whole slice, so
   a staging write conflicts with the reads whenever the slice is
   non-empty; every conflicting (write, read) pair must be separated — in
   program order within an iteration, or across the wrap-around edge — by
   an unconditional __syncthreads().  A barrier under a thread-dependent loop does not
   synchronise: some threads may never reach it, so it is itself an error
   (barrier divergence).  Events carry the kernel line their node prints
   on. *)

open Sched
module K = Codegen.Kernel

type event =
  | Write of { line : int; tensor : string }
  | Compute of { line : int }
  | Barrier of { line : int; divergent : bool }

(* Events inside the first (outermost) reduction-chunk loop, in program
   order. *)
let chunk_events kernel =
  let chunk = ref None and events = ref [] in
  K.iter kernel (fun ~line ~loops stmt ->
      (match (stmt, !chunk) with
      | K.Loop (({ role = K.Chunk _; _ } as l), _), None -> chunk := Some l
      | _ -> ());
      let inside =
        match !chunk with Some c -> List.memq c loops | None -> false
      in
      let record ev = if inside then events := ev :: !events in
      match stmt with
      | K.Stage tensor -> record (Write { line; tensor })
      | K.Accumulate _ -> record (Compute { line })
      | K.Barrier ->
        record
          (Barrier
             { line;
               divergent = List.exists (fun l -> l.K.thread_dependent) loops })
      | _ -> ());
  List.rev !events

(* Every thread reads the whole staged slice, so a staging write conflicts
   with the compute reads whenever the slice is non-empty. *)
let conflicts ~staged tensor =
  match List.assoc_opt tensor staged with
  | Some elems -> elems > 0
  | None -> true (* unknown array: assume the worst *)

let check etir kernel =
  let threads = Etir.threads_per_block etir in
  let staged = Costmodel.Footprint.input_elems etir ~level:1 in
  let steps = Etir.reduce_steps_at etir ~level:1 in
  let chunk_events = chunk_events kernel in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Barrier divergence is an error wherever it appears. *)
  List.iter
    (function
      | Barrier { line; divergent = true } when threads > 1 ->
        add
          (Diagnostic.v ~code:"GSR-R01" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d" line)
             "__syncthreads() under divergent control flow: threads may not \
              all reach the barrier (barrier divergence)")
      | _ -> ())
    chunk_events;
  if threads > 1 then begin
    (* Conflicting staging writes, in chunk order. *)
    let writes =
      List.filter_map
        (function
          | Write { line; tensor } when conflicts ~staged tensor ->
            Some (line, tensor)
          | _ -> None)
        chunk_events
    in
    let computes =
      List.filter_map
        (function Compute { line } -> Some line | _ -> None)
        chunk_events
    in
    let barrier_between lo hi =
      List.exists
        (function
          | Barrier { line; divergent = false } -> lo < line && line < hi
          | _ -> false)
        chunk_events
    in
    (match (writes, computes) with
    | _ :: _, first_read :: _ ->
      let last_write = List.fold_left (fun acc (l, _) -> max acc l) 0 writes in
      (* RAW: every cross-thread read of a staged slice must happen after
         the barrier that closes the staging phase. *)
      if last_write < first_read && not (barrier_between last_write first_read)
      then
        add
          (Diagnostic.v ~code:"GSR-R02" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d" first_read)
             "cross-thread reads of %s are not separated from the staging \
              writes by __syncthreads() (read-after-write race)"
             (String.concat ", "
                (List.sort_uniq compare
                   (List.map (fun (_, t) -> "smem_" ^ t) writes))));
      (* WAR wrap-around: iteration t+1's staging overwrites slices
         iteration t is still reading unless a barrier ends the chunk. *)
      let last_read = List.fold_left max 0 computes in
      if
        steps > 1
        && not
             (List.exists
                (function
                  | Barrier { line; divergent = false } -> line > last_read
                  | _ -> false)
                chunk_events)
      then
        add
          (Diagnostic.v ~code:"GSR-R03" Diagnostic.Error Diagnostic.Race
             ~loc:(Fmt.str "kernel line %d (end of reduction chunk)" last_read)
             "no __syncthreads() after the chunk's reads: the next \
              iteration's staging writes race with them (write-after-read \
              across chunk iterations)")
    | _ -> ())
  end;
  List.rev !diags
