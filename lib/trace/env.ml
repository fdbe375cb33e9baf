(* One parser for every GENSOR_* knob; see the mli for the accepted
   spellings.  Warnings are per-key and once per process so a typo'd knob
   read repeatedly (Pool.default_jobs is called per fan-out) cannot flood
   stderr. *)

let lock = Mutex.create ()
let warned_keys : string list ref = ref []

let warn_once ~key msg =
  Mutex.lock lock;
  let fresh = not (List.mem key !warned_keys) in
  if fresh then warned_keys := !warned_keys @ [ key ];
  Mutex.unlock lock;
  if fresh then prerr_endline msg

let warned () =
  Mutex.lock lock;
  let keys = !warned_keys in
  Mutex.unlock lock;
  keys

let reset_warnings () =
  Mutex.lock lock;
  warned_keys := [];
  Mutex.unlock lock

let bool ~default key =
  match Sys.getenv_opt key with
  | None -> default
  | Some raw -> (
    match String.lowercase_ascii (String.trim raw) with
    | "1" | "true" | "yes" | "on" -> true
    | "0" | "false" | "no" | "off" | "" -> false
    | other ->
      warn_once ~key
        (Printf.sprintf
           "gensor: %s=%S is not a boolean (1/true/yes/on or \
            0/false/no/off); using %b"
           key other default);
      default)

let int ?min ~default key =
  match Sys.getenv_opt key with
  | None -> default
  | Some raw -> (
    let raw = String.trim raw in
    match int_of_string_opt raw with
    | None ->
      warn_once ~key
        (Printf.sprintf "gensor: %s=%S is not an integer; using %d" key raw
           default);
      default
    | Some v -> (
      match min with
      | Some floor when v < floor ->
        warn_once ~key
          (Printf.sprintf "gensor: %s=%d is below the minimum %d; clamping"
             key v floor);
        floor
      | _ -> v))

let string key =
  match Sys.getenv_opt key with
  | None -> None
  | Some raw ->
    let raw = String.trim raw in
    if raw = "" then None else Some raw
