(* Step accounting.  [time name f] times one public call of a library.
   The calls split an op into steps: the calls themselves and the glue
   between them (named "").  Ops are identical, deterministic units of
   work, so every op runs the same steps in the same order and the loop
   can take each step's fastest time across ops.  In the traced run
   [enabled] also records the per-op quantities given to [note]. *)

let enabled = ref false
let notes : (string, float) Hashtbl.t = Hashtbl.create 16

(* (time, name of the step that ends there), newest first. *)
let bounds : (float * string) list ref = ref []

let time name f =
  let t0 = Sample.now () in
  let r = f () in
  let t1 = Sample.now () in
  bounds := (t1, name) :: (t0, "") :: !bounds;
  r

(* [note name v] records a per-op quantity that is not a time; [v] is only
   evaluated in the traced run. *)
let note name v = if !enabled then Hashtbl.replace notes name (v ())

let start () =
  Hashtbl.reset notes;
  bounds := []

(* The steps of an op that ran from [t0] to [t1], in order. *)
let steps ~t0 ~t1 =
  let rec go prev = function
    | [] -> []
    | (t, name) :: rest -> (name, t -. prev) :: go t rest
  in
  Array.of_list (go t0 (List.rev ((t1, "") :: !bounds)))
