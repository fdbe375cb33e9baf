(* Deterministic splitmix64 PRNG.

   Every stochastic component in the repository (Gensor's roulette selection,
   Ansor's evolutionary search, workload generators) draws from this so that
   experiments are reproducible from a seed; [Stdlib.Random] is never used. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform float in [0, 1): use the top 53 bits. *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit value would
     land in the sign bit and come out negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choice t items =
  match items with
  | [] -> invalid_arg "Rng.choice: empty list"
  | _ -> List.nth items (int t (List.length items))

(* Roulette (fitness-proportional) selection over non-negative weights,
   the selection rule of paper Algorithm 2.  Returns the chosen index.
   When all weights are zero, falls back to uniform choice. *)
let roulette t weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.roulette: empty weights";
  (* Loops over unboxed float accumulators: the anneal loop draws once per
     step, and a fold or a recursive scan would box a float per weight. *)
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 || Float.is_nan w then
      invalid_arg "Rng.roulette: negative or NaN weight";
    total := !total +. w
  done;
  if !total <= 0.0 then int t n
  else begin
    let target = float t *. !total in
    let i = ref 0 and acc = ref 0.0 and found = ref false in
    while (not !found) && !i < n - 1 do
      acc := !acc +. weights.(!i);
      if target < !acc then found := true else incr i
    done;
    !i
  end

(* Derive an independent stream, for splitting work deterministically. *)
let split t =
  let seed = Int64.to_int (next_int64 t) in
  create ~seed
