(* Span recorder + exporters.  See the mli for the contract.

   Recording is a mutex-guarded prepend onto a global list: spans open at
   phase granularity (optimizer restarts, anneal chains, pool chunks, store
   I/O), not per policy step, so contention on the buffer lock is
   negligible next to the work inside each span.  The enabled check is an
   atomic load taken before any allocation, which is what keeps disabled
   tracing free on the hot paths. *)

module Env = Env
module Counter = Counter

type event = {
  ev_name : string;
  ev_ph : char;  (* 'B' open | 'E' close *)
  ev_ts : float; (* microseconds since the recording started *)
  ev_tid : int;  (* raw Domain id; renumbered densely at export *)
  ev_args : (string * string) list;
  ev_minor_words : float;
      (* close events: words the closing domain allocated on the minor heap
         inside the span; 0 on open events *)
}

let enabled_flag = Atomic.make false
let sink : string option Atomic.t = Atomic.make None
let lock = Mutex.create ()
let events : event list ref = ref [] (* newest first *)
let epoch = ref 0.0
let enabled () = Atomic.get enabled_flag

(* Monotonic clock: gettimeofday can step backwards (NTP slew); exported
   timestamps never do.  CAS max keeps this wait-free across domains. *)
let last_ts = Atomic.make 0.0

let now_us () =
  let t = (Unix.gettimeofday () -. !epoch) *. 1e6 in
  let rec bump () =
    let last = Atomic.get last_ts in
    if t <= last then last
    else if Atomic.compare_and_set last_ts last t then t
    else bump ()
  in
  bump ()

let record ev =
  Mutex.lock lock;
  events := ev :: !events;
  Mutex.unlock lock

let set_output = function
  | None ->
    Atomic.set enabled_flag false;
    Atomic.set sink None;
    Mutex.lock lock;
    events := [];
    Mutex.unlock lock
  | Some path ->
    Mutex.lock lock;
    events := [];
    epoch := Unix.gettimeofday ();
    Mutex.unlock lock;
    Atomic.set last_ts 0.0;
    Atomic.set sink (Some path);
    Atomic.set enabled_flag true

let parse_spec s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "0" -> None
  | _ -> Some (String.trim s)

(* [Gc.minor_words] counts the calling domain's allocation, and a span
   opens and closes on one domain, so the delta is the span's own minor
   allocation (work it hands to other domains is counted in their spans). *)
let with_span ?(args = []) ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let tid = (Domain.self () :> int) in
    record
      { ev_name = name; ev_ph = 'B'; ev_ts = now_us (); ev_tid = tid;
        ev_args = List.sort (fun (a, _) (b, _) -> String.compare a b) args;
        ev_minor_words = 0.0 };
    let words0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let words = Gc.minor_words () -. words0 in
        record
          { ev_name = name; ev_ph = 'E'; ev_ts = now_us (); ev_tid = tid;
            ev_args = [ ("minor_words", Printf.sprintf "%.0f" words) ];
            ev_minor_words = words })
      f
  end

let recorded_events () =
  Mutex.lock lock;
  let n = List.length !events in
  Mutex.unlock lock;
  n

(* ---------- export ---------- *)

(* Chronological order with raw domain ids renumbered densely by first
   appearance, then grouped per lane (stable, so program order within a
   lane is preserved).  Lane grouping is what makes two runs of the same
   sequential workload diff cleanly: the structure is a function of the
   work, only [ts] varies. *)
let ordered_events () =
  Mutex.lock lock;
  let evs = List.rev !events in
  Mutex.unlock lock;
  let tids : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dense raw =
    match Hashtbl.find_opt tids raw with
    | Some d -> d
    | None ->
      let d = Hashtbl.length tids in
      Hashtbl.add tids raw d;
      d
  in
  let evs = List.map (fun ev -> (dense ev.ev_tid, ev)) evs in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) evs

(* [ts] is rounded to 0.1 us so it prints in a few digits. *)
let event_json name ph ts tid args =
  Json.Object
    ([ ("name", Json.String name); ("cat", Json.String "gensor");
       ("ph", Json.String ph); ("ts", Json.Number (Float.round (ts *. 10.) /. 10.));
       ("pid", Json.Number 1.); ("tid", Json.Number (float_of_int tid)) ]
    @ if args = [] then [] else [ ("args", Json.Object args) ])

(* One event per line, so traces diff line by line.  Final counter values
   ride along as Chrome counter ('C') events so the registry is readable
   straight from the trace file. *)
let chrome_json () =
  let final_ts = Atomic.get last_ts in
  let span (tid, ev) =
    event_json ev.ev_name (String.make 1 ev.ev_ph) ev.ev_ts tid
      (List.map (fun (k, v) -> (k, Json.String v)) ev.ev_args)
  and counter (name, value) =
    event_json name "C" final_ts 0 [ ("value", Json.Number (float_of_int value)) ]
  in
  let events =
    List.map span (ordered_events ()) @ List.map counter (Counter.snapshot ())
  in
  "{ \"traceEvents\": [\n"
  ^ String.concat ",\n" (List.map Json.to_string events)
  ^ "\n], \"displayTimeUnit\": \"ms\" }\n"

(* Flat text summary: per-span aggregates in name order, then the counter
   registry.  Self-contained replacement for grepping N ad-hoc stat
   printouts. *)
let text_summary () =
  let evs = ordered_events () in
  let totals : (string, float * int * float) Hashtbl.t = Hashtbl.create 32 in
  let stacks : (int, (string * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (tid, ev) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match ev.ev_ph with
      | 'B' -> Hashtbl.replace stacks tid ((ev.ev_name, ev.ev_ts) :: stack)
      | 'E' -> (
        match stack with
        | (name, t0) :: rest when String.equal name ev.ev_name ->
          Hashtbl.replace stacks tid rest;
          let total, count, words =
            Option.value ~default:(0.0, 0, 0.0) (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name
            (total +. (ev.ev_ts -. t0), count + 1, words +. ev.ev_minor_words)
        | _ -> ())
      | _ -> ())
    evs;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# gensor trace summary\n";
  Buffer.add_string buf
    (Printf.sprintf "%-40s %8s %14s %14s\n" "span" "count" "total_ms"
       "minor_Mwords");
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, (total, count, words)) ->
         Buffer.add_string buf
           (Printf.sprintf "%-40s %8d %14.3f %14.3f\n" name count
              (total /. 1e3) (words /. 1e6)));
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Printf.sprintf "%-40s %14s\n" "counter" "value");
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf (Printf.sprintf "%-40s %14d\n" name value))
    (Counter.snapshot ());
  Buffer.contents buf

let flush () =
  if not (Atomic.get enabled_flag) then None
  else
    match Atomic.get sink with
    | None -> None
    | Some path ->
      let body =
        if Filename.check_suffix path ".json" then chrome_json ()
        else text_summary ()
      in
      Atomic.set enabled_flag false;
      Atomic.set sink None;
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc body);
      Mutex.lock lock;
      events := [];
      Mutex.unlock lock;
      Some path

(* ---------- validation ---------- *)

type validation = {
  v_events : int;
  v_spans : int;
  v_counters : int;
  v_tids : int;
}

let validate_file path =
  let fail fmt = Printf.ksprintf failwith fmt in
  match
    let body = In_channel.with_open_bin path In_channel.input_all in
    let events =
      match Result.map (Json.member "traceEvents") (Json.parse body) with
      | Ok (Some (Json.Array evs)) -> evs
      | Ok _ -> fail "no traceEvents array"
      | Error m -> fail "%s" m
    in
    if events = [] then fail "no trace events";
    (* Each lane's stack of open span names. *)
    let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
    let spans = ref 0 and counters = ref 0 in
    List.iteri
      (fun i ev ->
        let name, ph, tid =
          match Json.(member "name" ev, member "ph" ev, member "tid" ev) with
          | Some (Json.String name), Some (Json.String ph), Some (Json.Number t)
            when Float.is_integer t -> (name, ph, int_of_float t)
          | _ -> fail "traceEvents[%d]: needs a string name and ph and an integer tid" i
        in
        let bad fmt = Printf.ksprintf (fail "traceEvents[%d]: %s" i) fmt in
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid
          (match (ph, stack) with
          | "B", _ -> name :: stack
          | "E", top :: rest when String.equal top name -> incr spans; rest
          | "E", top :: _ -> bad "E %S does not close the open span %S (tid %d)" name top tid
          | "E", [] -> bad "E %S with no open span (tid %d)" name tid
          | "C", _ -> incr counters; stack
          | _ -> bad "unknown phase %S" ph))
      events;
    Hashtbl.iter
      (fun tid stack ->
        if stack <> [] then
          fail "%d span(s) left open on tid %d (deepest %S)" (List.length stack) tid
            (List.hd stack))
      stacks;
    { v_events = List.length events; v_spans = !spans; v_counters = !counters;
      v_tids = Hashtbl.length stacks }
  with
  | v -> Ok v
  | exception Failure m -> Error (path ^ ": " ^ m)
  | exception Sys_error m -> Error m

(* Self-configuration: GENSOR_TRACE=<path> starts a recording in any
   binary that links this library; flush is guaranteed at exit. *)
let () =
  (match Env.string "GENSOR_TRACE" with
  | Some spec -> set_output (parse_spec spec)
  | None -> ());
  at_exit (fun () -> ignore (flush () : string option))
