(* Registry of atomic counters.  The registry table is touched on
   creation/snapshot only; the hot path is a plain [Atomic.incr] on a
   counter the caller holds. *)

type t = { name : string; cell : int Atomic.t }

let lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let make name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; cell = Atomic.make 0 } in
      Hashtbl.add registry name c;
      c
  in
  Mutex.unlock lock;
  c

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let set c n = Atomic.set c.cell n
let get c = Atomic.get c.cell
let name c = c.name

let snapshot () =
  Mutex.lock lock;
  let entries =
    Hashtbl.fold
      (fun name c acc -> (name, Atomic.get c.cell) :: acc)
      registry []
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let find key = List.assoc_opt key (snapshot ())

let reset_all () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
  Mutex.unlock lock
