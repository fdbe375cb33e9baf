(* The result of running a schedule on the CPU: its output and, per output
   element, how many times the executor wrote it.  A correct schedule
   partitions the spatial domain exactly, so every count is 1 — the main
   invariant of the executor tests. *)

type result = {
  output : Tensor.t;
  coverage : Tensor.t;  (* per-output-element visit count *)
}

(* Every output element written exactly once.  [coverage_violation] returns
   the first offender (row-major order) with its observed count so a failing
   partition property names the coordinate instead of a bare [false]. *)
let coverage_violation result =
  let counts = Tensor.unsafe_data result.coverage in
  let len = Array.length counts in
  let rec scan off =
    if off = len then None
    else
      let count = counts.(off) in
      if count <> 1.0 then
        Some (Tensor.coords_of_offset result.coverage off, count)
      else scan (off + 1)
  in
  scan 0

let coverage_exact result = coverage_violation result = None

let pp_coverage_violation ppf (coords, count) =
  Fmt.pf ppf "output[%a] written %g times (expected 1)"
    Fmt.(list ~sep:(any ",") int)
    coords count
