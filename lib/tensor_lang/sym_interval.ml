(* Symbolic intervals: the shape-parametric counterpart of {!Interval}.

   An endpoint is an affine form [Σ cᵢ·sᵢ + k] over named shape symbols —
   the abstract domain of the legality-certificate tier (lib/verify/cert):
   where {!Interval} bounds a tensor access at one concrete shape, this
   module bounds it for a whole *region* of shapes at once, so a single
   analysis run certifies every shape in a bucket.

   Arithmetic mirrors {!Interval}: addition/subtraction/negation and
   scaling by integer constants are exact on affine forms; multiplication
   of two genuinely symbolic forms, division and modulo leave the affine
   domain, so they widen through [concretize] — each symbol is replaced by
   its declared range and the operation falls back to plain interval
   arithmetic.  The result is sound (never narrower than the concrete
   interval at any shape in the region) and loses symbolic precision only
   where the concrete analysis is itself conservative. *)

module Affine = struct
  (* Canonical form: terms sorted by symbol name, no zero coefficients. *)
  type t = { terms : (string * int) list; const : int }

  let const k = { terms = []; const = k }
  let zero = const 0

  let sym ?(coeff = 1) name =
    if name = "" then invalid_arg "Sym_interval.Affine.sym: empty name";
    if coeff = 0 then zero else { terms = [ (name, coeff) ]; const = 0 }

  let is_const t = t.terms = []
  let const_val t = if t.terms = [] then Some t.const else None
  let offset t = t.const
  let syms t = List.map fst t.terms
  let coeff t name = Option.value ~default:0 (List.assoc_opt name t.terms)

  (* Merge two sorted term lists, dropping cancelled coefficients. *)
  let rec merge_terms a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (sa, ca) :: ta, (sb, cb) :: tb ->
      let cmp = compare sa sb in
      if cmp < 0 then (sa, ca) :: merge_terms ta b
      else if cmp > 0 then (sb, cb) :: merge_terms a tb
      else
        let c = ca + cb in
        if c = 0 then merge_terms ta tb else (sa, c) :: merge_terms ta tb

  let add a b = { terms = merge_terms a.terms b.terms; const = a.const + b.const }

  let scale k t =
    if k = 0 then zero
    else
      { terms = List.map (fun (s, c) -> (s, k * c)) t.terms;
        const = k * t.const }

  let neg t = scale (-1) t
  let sub a b = add a (neg b)
  let add_const k t = { t with const = t.const + k }

  (* Affine × affine stays affine only when one side is constant. *)
  let mul a b =
    match (const_val a, const_val b) with
    | Some k, _ -> Some (scale k b)
    | _, Some k -> Some (scale k a)
    | None, None -> None

  let eval ~env t =
    List.fold_left (fun acc (s, c) -> acc + (c * env s)) t.const t.terms

  (* Tight bounds of the form when each symbol ranges over [range sym]: an
     affine form is monotone per coordinate, so the extremum sits at the
     corner selected by each coefficient's sign. *)
  let bounds ~range t =
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (s, c) ->
          let r = range s in
          if c > 0 then (lo + (c * Interval.lo r), hi + (c * Interval.hi r))
          else (lo + (c * Interval.hi r), hi + (c * Interval.lo r)))
        (t.const, t.const) t.terms
    in
    Interval.v lo hi

  let equal a b = a.terms = b.terms && a.const = b.const
  let compare = compare

  let pp ppf t =
    if t.terms = [] then Fmt.pf ppf "%d" t.const
    else begin
      List.iteri
        (fun i (s, c) ->
          if i = 0 then
            if c = 1 then Fmt.pf ppf "%s" s
            else if c = -1 then Fmt.pf ppf "-%s" s
            else Fmt.pf ppf "%d*%s" c s
          else if c >= 0 then
            if c = 1 then Fmt.pf ppf " + %s" s else Fmt.pf ppf " + %d*%s" c s
          else if c = -1 then Fmt.pf ppf " - %s" s
          else Fmt.pf ppf " - %d*%s" (-c) s)
        t.terms;
      if t.const > 0 then Fmt.pf ppf " + %d" t.const
      else if t.const < 0 then Fmt.pf ppf " - %d" (-t.const)
    end

  let to_string t = Fmt.str "%a" pp t
end

type t = { lo : Affine.t; hi : Affine.t }

(* No lo <= hi check is possible symbolically; [v] trusts the caller (the
   certificate engine only builds intervals whose ordering holds on its
   declared region, and [concretize] re-validates against the region). *)
let v lo hi = { lo; hi }
let point a = { lo = a; hi = a }
let of_const n = point (Affine.const n)
let of_interval iv = { lo = Affine.const (Interval.lo iv); hi = Affine.const (Interval.hi iv) }
let lo t = t.lo
let hi t = t.hi

(* Concrete hull of the symbolic interval over the region [range]. *)
let concretize ~range t =
  Interval.v
    (Interval.lo (Affine.bounds ~range t.lo))
    (Interval.hi (Affine.bounds ~range t.hi))

let add a b = { lo = Affine.add a.lo b.lo; hi = Affine.add a.hi b.hi }
let sub a b = { lo = Affine.sub a.lo b.hi; hi = Affine.sub a.hi b.lo }
let neg a = { lo = Affine.neg a.hi; hi = Affine.neg a.lo }

(* Multiplication: exact (and still affine) when one operand is a known
   constant point; otherwise widen both sides over the region. *)
let mul ~range a b =
  let const_point t =
    match (Affine.const_val t.lo, Affine.const_val t.hi) with
    | Some l, Some h when l = h -> Some l
    | _ -> None
  in
  let scale_by k t =
    if k >= 0 then { lo = Affine.scale k t.lo; hi = Affine.scale k t.hi }
    else { lo = Affine.scale k t.hi; hi = Affine.scale k t.lo }
  in
  match (const_point a, const_point b) with
  | Some k, _ -> scale_by k b
  | _, Some k -> scale_by k a
  | None, None ->
    of_interval (Interval.mul (concretize ~range a) (concretize ~range b))

(* Division and modulo leave the affine domain: widen like {!Interval}. *)
let div ~range a b =
  of_interval (Interval.div (concretize ~range a) (concretize ~range b))

let rem ~range a b =
  of_interval (Interval.rem (concretize ~range a) (concretize ~range b))

let min_ ~range a b =
  of_interval
    (Interval.min_ (concretize ~range a) (concretize ~range b))

let max_ ~range a b =
  of_interval
    (Interval.max_ (concretize ~range a) (concretize ~range b))

let rec of_index ~env ~range (idx : Index.t) =
  match idx with
  | Index.Var name -> env name
  | Index.Const n -> of_const n
  | Index.Add (a, b) -> add (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Sub (a, b) -> sub (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Mul (a, b) ->
    mul ~range (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Div (a, b) ->
    div ~range (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Mod (a, b) ->
    rem ~range (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Min (a, b) ->
    min_ ~range (of_index ~env ~range a) (of_index ~env ~range b)
  | Index.Max (a, b) ->
    max_ ~range (of_index ~env ~range a) (of_index ~env ~range b)

let pp ppf t = Fmt.pf ppf "[%a, %a]" Affine.pp t.lo Affine.pp t.hi
