(* Work-stealing-free domain pool: one shared queue, [jobs - 1] worker
   domains, and a participating caller.

   Determinism contract: [map] writes each chunk's results into a slot
   indexed by the input position, so the output order never depends on
   domain scheduling.  With [jobs = 1] no domains exist and [map] reduces to
   a sequential [List.map] on the calling domain. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

(* A [map] issued from inside a worker task must not block on the shared
   queue (its sub-tasks could end up queued behind the very task awaiting
   them), so nested maps run inline. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker pool () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock pool.lock;
    let rec next () =
      if pool.stopping then None
      else
        match Queue.take_opt pool.queue with
        | Some task -> Some task
        | None ->
          Condition.wait pool.work pool.lock;
          next ()
    in
    match next () with
    | None -> Mutex.unlock pool.lock
    | Some task ->
      Mutex.unlock pool.lock;
      task ();
      loop ()
  in
  loop ()

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    { jobs; lock = Mutex.create (); work = Condition.create ();
      queue = Queue.create (); stopping = false; domains = [] }
  in
  if jobs > 1 then
    pool.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  at_exit (fun () -> shutdown pool);
  pool

let jobs pool = pool.jobs

(* Per-map completion state; workers signal [finished] when the last chunk
   of that particular map settles. *)
type 'b progress = {
  plock : Mutex.t;
  finished : Condition.t;
  results : 'b option array;
  mutable pending : int;
  mutable first_error : (int * exn * Printexc.raw_backtrace) option;
}

let sequential_map f xs = List.rev (List.rev_map f xs)

let map pool f xs =
  if pool.jobs <= 1 || Domain.DLS.get in_worker then sequential_map f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    if n = 0 then []
    else begin
      let progress =
        { plock = Mutex.create (); finished = Condition.create ();
          results = Array.make n None; pending = 0; first_error = None }
      in
      (* Chunks several times smaller than an even split keep the lanes
         busy when item costs are skewed, without per-item queue traffic. *)
      let chunk = max 1 ((n + (pool.jobs * 4) - 1) / (pool.jobs * 4)) in
      let run_chunk lo =
        let hi = min n (lo + chunk) in
        (* The span must close before the completion signal: the caller may
           flush the trace as soon as [pending] hits 0, and an E event
           recorded after that flush would leave the span dangling open. *)
        (Trace.with_span ~name:"pool.chunk"
           ~args:[ ("items", string_of_int (hi - lo)) ]
        @@ fun () ->
         for i = lo to hi - 1 do
           match f items.(i) with
           | result -> progress.results.(i) <- Some result
           | exception e ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock progress.plock;
             (match progress.first_error with
             | Some (j, _, _) when j <= i -> ()
             | Some _ | None -> progress.first_error <- Some (i, e, bt));
             Mutex.unlock progress.plock
         done);
        Mutex.lock progress.plock;
        progress.pending <- progress.pending - 1;
        if progress.pending = 0 then Condition.broadcast progress.finished;
        Mutex.unlock progress.plock
      in
      let chunks =
        let rec starts lo acc = if lo >= n then List.rev acc else starts (lo + chunk) (lo :: acc) in
        starts 0 []
      in
      progress.pending <- List.length chunks;
      Mutex.lock pool.lock;
      List.iter (fun lo -> Queue.add (fun () -> run_chunk lo) pool.queue) chunks;
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock;
      (* The caller drains the queue alongside the workers, then waits for
         in-flight chunks.  It may momentarily pick up chunks of an outer
         nested map; that only deepens its stack, never deadlocks. *)
      let rec drain () =
        Mutex.lock pool.lock;
        let task = Queue.take_opt pool.queue in
        Mutex.unlock pool.lock;
        match task with
        | Some task ->
          task ();
          drain ()
        | None ->
          Mutex.lock progress.plock;
          while progress.pending > 0 do
            Condition.wait progress.finished progress.plock
          done;
          Mutex.unlock progress.plock
      in
      drain ();
      (match progress.first_error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list (Array.map Option.get progress.results)
    end
  end

(* GENSOR_JOBS is validated, not trusted: zero/negative widths clamp to 1
   and garbage falls back to the machine default, each with a one-time
   stderr warning (Trace.Env) — a typo'd width must never surface as a
   failure deep inside a domain spawn.  The default counts the caller as a
   lane: a pool of [jobs] spawns [jobs - 1] workers. *)
let default_jobs () =
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  Trace.Env.int ~min:1 ~default:fallback "GENSOR_JOBS"

(* Shared pools, one per requested width, created lazily.  Workers idle on a
   condition variable between maps, so keeping them alive is free. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let get ?jobs () =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  Mutex.lock registry_lock;
  let pool =
    match Hashtbl.find_opt registry jobs with
    | Some pool -> pool
    | None ->
      let pool = create ~jobs in
      Hashtbl.add registry jobs pool;
      pool
  in
  Mutex.unlock registry_lock;
  pool

let map_auto ?jobs f xs =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  Trace.with_span ~name:"pool.map"
    ~args:
      [ ("items", string_of_int (List.length xs));
        ("jobs", string_of_int jobs) ]
  @@ fun () ->
  if jobs = 1 || Domain.DLS.get in_worker then sequential_map f xs
  else map (get ~jobs ()) f xs
