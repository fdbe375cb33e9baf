(* Inclusive integer intervals and a conservative interval evaluation of
   index expressions.

   The cost model uses this to compute, for an arbitrary tensor access and an
   arbitrary tile of the iteration domain, how many distinct elements the tile
   touches along each tensor dimension — the per-tile memory footprint from
   which traffic Q and footprint F (paper Eq. 1) are derived.  Interval
   arithmetic is exact for the affine accesses our operators use and safely
   conservative for div/mod. *)

type t = { lo : int; hi : int }

let v lo hi =
  if lo > hi then invalid_arg "Interval.v: lo > hi";
  { lo; hi }

let point n = { lo = n; hi = n }
let lo t = t.lo
let hi t = t.hi
let extent t = t.hi - t.lo + 1
let contains t n = t.lo <= n && n <= t.hi
let equal a b = a.lo = b.lo && a.hi = b.hi

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }
let sub a b = { lo = a.lo - b.hi; hi = a.hi - b.lo }
let neg a = { lo = -a.hi; hi = -a.lo }

let mul a b =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  { lo = List.fold_left Int.min max_int products;
    hi = List.fold_left Int.max min_int products }

(* Floor division by an interval of positive divisors. *)
let div a b =
  if b.lo <= 0 then invalid_arg "Interval.div: divisor interval not positive";
  let quotients =
    [ Index.floordiv a.lo b.lo; Index.floordiv a.lo b.hi;
      Index.floordiv a.hi b.lo; Index.floordiv a.hi b.hi ]
  in
  { lo = List.fold_left Int.min max_int quotients;
    hi = List.fold_left Int.max min_int quotients }

(* Remainder modulo an interval of positive divisors.  Exact when the whole
   numerator interval lies within one period; otherwise the full residue
   range. *)
let rem a b =
  if b.lo <= 0 then invalid_arg "Interval.rem: divisor interval not positive";
  if b.lo = b.hi then begin
    let n = b.lo in
    let qlo = Index.floordiv a.lo n and qhi = Index.floordiv a.hi n in
    if qlo = qhi then { lo = Index.floormod a.lo n; hi = Index.floormod a.hi n }
    else { lo = 0; hi = n - 1 }
  end
  else { lo = 0; hi = b.hi - 1 }

let min_ a b = { lo = Int.min a.lo b.lo; hi = Int.min a.hi b.hi }
let max_ a b = { lo = Int.max a.lo b.lo; hi = Int.max a.hi b.hi }

let inter a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let rec of_index ~env (idx : Index.t) =
  match idx with
  | Index.Var name -> env name
  | Index.Const n -> point n
  | Index.Add (a, b) -> add (of_index ~env a) (of_index ~env b)
  | Index.Sub (a, b) -> sub (of_index ~env a) (of_index ~env b)
  | Index.Mul (a, b) -> mul (of_index ~env a) (of_index ~env b)
  | Index.Div (a, b) -> div (of_index ~env a) (of_index ~env b)
  | Index.Mod (a, b) -> rem (of_index ~env a) (of_index ~env b)
  | Index.Min (a, b) -> min_ (of_index ~env a) (of_index ~env b)
  | Index.Max (a, b) -> max_ (of_index ~env a) (of_index ~env b)

let pp ppf t = Fmt.pf ppf "[%d,%d]" t.lo t.hi
