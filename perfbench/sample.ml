(* Clock and order statistics for the benchmark loop. *)

(* Monotonic wall clock in seconds: gettimeofday can step under NTP. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample.  Returns the value and its percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then invalid_arg "Sample.tail: fewer than 11 samples";
  (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
