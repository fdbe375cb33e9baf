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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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

let pp_event buf (tid, ev) ~last =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"gensor\",\"ph\":\"%c\",\"ts\":%.1f,\"pid\":1,\"tid\":%d"
       (json_escape ev.ev_name) ev.ev_ph ev.ev_ts tid);
  (match ev.ev_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      args;
    Buffer.add_char buf '}');
  Buffer.add_string buf (if last then "}\n" else "},\n")

let chrome_json () =
  let evs = ordered_events () in
  let counters = Counter.snapshot () in
  let final_ts = Atomic.get last_ts in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{ \"traceEvents\": [\n";
  let n_ev = List.length evs and n_ctr = List.length counters in
  List.iteri
    (fun i ev -> pp_event buf ev ~last:(n_ctr = 0 && i = n_ev - 1))
    evs;
  (* Final counter values ride along as Chrome counter ('C') events so the
     registry is readable straight from the trace file. *)
  List.iteri
    (fun i (name, value) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"gensor\",\"ph\":\"C\",\"ts\":%.1f,\"pid\":1,\"tid\":0,\"args\":{\"value\":%d}}%s\n"
           (json_escape name) final_ts value
           (if i = n_ctr - 1 then "" else ",")))
    counters;
  Buffer.add_string buf "], \"displayTimeUnit\": \"ms\" }\n";
  Buffer.contents buf

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

(* The exporter writes one event per line, so validation is line-oriented:
   a full JSON parser would be the repo's only external-parser dependency. *)
let field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and m = String.length pat in
  let rec go i = if i + m > n then None else if String.sub line i m = pat then Some (i + m) else go (i + 1) in
  Option.map
    (fun start ->
      let stop = ref start in
      let in_string = String.length line > start && line.[start] = '"' in
      if in_string then begin
        stop := start + 1;
        while !stop < n && line.[!stop] <> '"' do incr stop done;
        String.sub line (start + 1) (!stop - start - 1)
      end
      else begin
        while
          !stop < n
          && (match line.[!stop] with
             | ',' | '}' | ' ' -> false
             | _ -> true)
        do
          incr stop
        done;
        String.sub line start (!stop - start)
      end)
    (go 0)

let validate_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
    let tids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let events = ref 0 and spans = ref 0 and counters = ref 0 in
    let error = ref None in
    let fail lineno msg =
      if !error = None then
        error := Some (Printf.sprintf "%s:%d: %s" path lineno msg)
    in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         match field line "ph" with
         | None -> ()
         | Some ph ->
           incr events;
           let name = Option.value ~default:"" (field line "name") in
           let tid =
             Option.bind (field line "tid") int_of_string_opt
             |> Option.value ~default:0
           in
           Hashtbl.replace tids tid ();
           let stack =
             Option.value ~default:[] (Hashtbl.find_opt stacks tid)
           in
           (match ph with
           | "B" -> Hashtbl.replace stacks tid (name :: stack)
           | "E" -> (
             match stack with
             | top :: rest when String.equal top name ->
               incr spans;
               Hashtbl.replace stacks tid rest
             | top :: _ ->
               fail !lineno
                 (Printf.sprintf "E %S does not close the open span %S (tid %d)"
                    name top tid)
             | [] ->
               fail !lineno
                 (Printf.sprintf "E %S with no open span (tid %d)" name tid))
           | "C" -> incr counters
           | other -> fail !lineno (Printf.sprintf "unknown phase %S" other))
       done
     with End_of_file -> ());
    close_in_noerr ic;
    (match !error with
    | Some _ -> ()
    | None ->
      Hashtbl.iter
        (fun tid stack ->
          if stack <> [] then
            error :=
              Some
                (Printf.sprintf "%s: %d span(s) left open on tid %d (deepest %S)"
                   path (List.length stack) tid (List.hd stack)))
        stacks);
    (match !error with
    | Some msg -> Error msg
    | None ->
      if !events = 0 then Error (Printf.sprintf "%s: no trace events" path)
      else
        Ok
          { v_events = !events; v_spans = !spans; v_counters = !counters;
            v_tids = Hashtbl.length tids })

(* Self-configuration: GENSOR_TRACE=<path> starts a recording in any
   binary that links this library; flush is guaranteed at exit. *)
let () =
  (match Env.string "GENSOR_TRACE" with
  | Some spec -> set_output (parse_spec spec)
  | None -> ());
  at_exit (fun () -> ignore (flush () : string option))
