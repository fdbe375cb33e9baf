(* Persistent on-disk artifact store.

   Layout: one framed [Record] file per entry, named `<md5 of key>.gat`,
   and nothing else (`gensor cache ls` lists the entries).  The key is (device fingerprint, method name, compute fingerprint) — the
   identity under which a tuned schedule is reusable.

   Crash/concurrency safety:
   - writes go to a temp file in the same directory and are published with
     [Sys.rename], which is atomic within a filesystem — a reader never
     observes a half-written artifact, and a crash leaves at most a stray
     temp file;
   - the checksummed framing catches anything that still goes wrong on
     disk: [open_] skips undecodable entries and reports them as {!issues}
     instead of failing, so one corrupt file cannot poison the store;
   - all store state is behind a mutex, so a [t] can be shared across the
     domains of [Parallel.Pool]. *)

type issue = { path : string; error : Codec.error }

type t = {
  dir : string;
  lock : Mutex.t;
  table : (string, Record.t) Hashtbl.t;
  mutable issues : issue list;
}

let suffix = ".gat"

let key ~device_fingerprint ~method_name ~compute_fingerprint =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ device_fingerprint; method_name; compute_fingerprint ]))

let key_of_record (r : Record.t) =
  key ~device_fingerprint:r.device_fingerprint ~method_name:r.method_name
    ~compute_fingerprint:(Record.compute_fingerprint r)

let filename_of_key k = k ^ suffix
let path_of_key t k = Filename.concat t.dir (filename_of_key k)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publish: same-directory temp file + rename. *)
let write_file_atomic ~dir ~path contents =
  let tmp = Filename.temp_file ~temp_dir:dir ".artifact-" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* Keep the better-scoring record when two files map to the same key (can
   only happen when files were copied in by hand). *)
let remember t k (r : Record.t) =
  match Hashtbl.find_opt t.table k with
  | Some old when Costmodel.Metrics.score old.metrics
                  >= Costmodel.Metrics.score r.metrics ->
    ()
  | _ -> Hashtbl.replace t.table k r

let c_puts = Trace.Counter.make "store.puts"
let c_scanned = Trace.Counter.make "store.entries_scanned"
let c_bytes = Trace.Counter.make "store.bytes_scanned"
let c_devices = Trace.Counter.make "store.devices_decoded"

(* The device intern table lives for this scan only, so every [open_]
   reads and checks the directory afresh. *)
let scan t =
  Trace.with_span ~name:"store.scan" ~args:[ ("dir", t.dir) ] @@ fun () ->
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.sort compare files;
  let devices = Record.devices () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f suffix then begin
        let path = Filename.concat t.dir f in
        match read_file path with
        | exception Sys_error m ->
          t.issues <-
            { path; error = { Codec.line = 0; msg = m } } :: t.issues
        | text -> (
          Trace.Counter.add c_bytes (String.length text);
          match Record.decode ~devices text with
          | Ok r ->
            Trace.Counter.incr c_scanned;
            remember t (key_of_record r) r
          | Error error -> t.issues <- { path; error } :: t.issues)
      end)
    files;
  Trace.Counter.add c_devices (Record.devices_decoded devices);
  t.issues <- List.rev t.issues

let open_ dir =
  mkdir_p dir;
  let t = { dir; lock = Mutex.create (); table = Hashtbl.create 64; issues = [] } in
  scan t;
  t

let env_var = "GENSOR_CACHE_DIR"

let open_env () = Option.map open_ (Trace.Env.string env_var)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dir t = t.dir
let size t = locked t (fun () -> Hashtbl.length t.table)
let issues t = locked t (fun () -> t.issues)

let find t ~device_fingerprint ~method_name ~compute_fingerprint =
  let k = key ~device_fingerprint ~method_name ~compute_fingerprint in
  locked t (fun () -> Hashtbl.find_opt t.table k)

let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let put t (r : Record.t) =
  let k = key_of_record r in
  Trace.Counter.incr c_puts;
  Trace.with_span ~name:"store.put" ~args:[ ("key", k) ] @@ fun () ->
  locked t (fun () ->
      remember t k r;
      match Hashtbl.find_opt t.table k with
      | Some kept when kept == r ->
        write_file_atomic ~dir:t.dir ~path:(path_of_key t k) (Record.encode r)
      | _ -> ());
  k

let total_bytes t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k _ acc ->
          let p = path_of_key t k in
          acc + (try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0))
        t.table 0)

let purge t =
  locked t (fun () ->
      let n = Hashtbl.length t.table in
      Hashtbl.iter
        (fun k _ ->
          try Sys.remove (path_of_key t k) with Sys_error _ -> ())
        t.table;
      Hashtbl.reset t.table;
      t.issues <- [];
      n)

let export t ~key:k ~dest =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> Error (Fmt.str "no artifact with key %s" k)
      | Some r ->
        (try
           write_file_atomic ~dir:(Filename.dirname dest) ~path:dest
             (Record.encode r);
           Ok ()
         with Sys_error m -> Error m))

let pp_issue ppf i =
  Fmt.pf ppf "%s: %a" i.path Codec.pp_error i.error
