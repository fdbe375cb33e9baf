(* Compiled tile-footprint analysis: the per-access interval analysis behind
   the cost model's footprint F and traffic Q (paper Eq. 1), lowered once
   per compute definition so that evaluating it against a tile is a few
   integer multiply-adds.

   Interval arithmetic over a tile [0, t - 1] is exact for the affine
   subset (variables, constants, sums, differences, products by a constant):
   each operation adds the widths of its operands, or scales one by |c|, so
   the interval's width is the sum over variable occurrences of
   |c| * (t - 1).  Summing per occurrence rather than per variable is what
   keeps the two equal — interval analysis cannot cancel [i - i].  Anything
   else keeps its tree, with variables resolved to slots, and is evaluated
   by interval analysis. *)

type gexpr =
  | Slot of int
  | Const of int
  | Add of gexpr * gexpr
  | Sub of gexpr * gexpr
  | Mul of gexpr * gexpr
  | Div of gexpr * gexpr
  | Mod of gexpr * gexpr
  | Min of gexpr * gexpr
  | Max of gexpr * gexpr

type dim =
  | Affine of { slots : int array; coeffs : int array }
  | General of gexpr

type entry = { tensor : string; elem_bytes : int; dims : dim array }
type t = { n_spatial : int; entries : entry array }

(* Value of a variable-free affine subtree; [None] when the subtree has a
   variable or an operation outside the affine subset. *)
let rec constant (idx : Index.t) =
  let ( let* ) = Option.bind in
  let bin op a b =
    let* x = constant a in
    let* y = constant b in
    Some (op x y)
  in
  match idx with
  | Index.Const n -> Some n
  | Index.Add (a, b) -> bin ( + ) a b
  | Index.Sub (a, b) -> bin ( - ) a b
  | Index.Mul (a, b) -> bin ( * ) a b
  | Index.Var _ | Index.Div _ | Index.Mod _ | Index.Min _ | Index.Max _ -> None

(* Signed (slot, coefficient) per variable occurrence, scaled by [c]; [None]
   outside the affine subset. *)
let rec occurrences ~slot c (idx : Index.t) =
  let ( let* ) = Option.bind in
  match idx with
  | Index.Var name -> Some [ (slot name, c) ]
  | Index.Const _ -> Some []
  | Index.Add (a, b) ->
    let* la = occurrences ~slot c a in
    let* lb = occurrences ~slot c b in
    Some (la @ lb)
  | Index.Sub (a, b) ->
    let* la = occurrences ~slot c a in
    let* lb = occurrences ~slot (-c) b in
    Some (la @ lb)
  | Index.Mul (a, b) -> (
    match (constant a, constant b) with
    | Some k, _ -> occurrences ~slot (c * k) b
    | None, Some k -> occurrences ~slot (c * k) a
    | None, None -> None)
  | Index.Div _ | Index.Mod _ | Index.Min _ | Index.Max _ -> None

let rec resolve ~slot (idx : Index.t) =
  let bin mk a b = mk (resolve ~slot a) (resolve ~slot b) in
  match idx with
  | Index.Var name -> Slot (slot name)
  | Index.Const n -> Const n
  | Index.Add (a, b) -> bin (fun a b -> Add (a, b)) a b
  | Index.Sub (a, b) -> bin (fun a b -> Sub (a, b)) a b
  | Index.Mul (a, b) -> bin (fun a b -> Mul (a, b)) a b
  | Index.Div (a, b) -> bin (fun a b -> Div (a, b)) a b
  | Index.Mod (a, b) -> bin (fun a b -> Mod (a, b)) a b
  | Index.Min (a, b) -> bin (fun a b -> Min (a, b)) a b
  | Index.Max (a, b) -> bin (fun a b -> Max (a, b)) a b

let compile_dim ~slot idx =
  match occurrences ~slot 1 idx with
  | Some occ ->
    Affine
      { slots = Array.of_list (List.map fst occ);
        coeffs = Array.of_list (List.map (fun (_, c) -> abs c) occ) }
  | None -> General (resolve ~slot idx)

let of_compute compute =
  let spatial = Compute.spatial_axes compute in
  let reduce = Compute.reduce_axes compute in
  let n_spatial = List.length spatial in
  let slots =
    List.mapi (fun i ax -> (Axis.name ax, i)) spatial
    @ List.mapi (fun j ax -> (Axis.name ax, n_spatial + j)) reduce
  in
  let slot name =
    match List.assoc_opt name slots with
    | Some s -> s
    | None -> invalid_arg (Fmt.str "Footprint_plan: unknown axis %s" name)
  in
  let elem_bytes tensor =
    match
      List.find_opt
        (fun input -> input.Compute.in_name = tensor)
        (Compute.inputs compute)
    with
    | Some input -> Dtype.size_bytes input.Compute.in_dtype
    | None ->
      invalid_arg (Fmt.str "Footprint_plan: access to unknown tensor %s" tensor)
  in
  let entry access =
    let tensor = Access.tensor access in
    { tensor; elem_bytes = elem_bytes tensor;
      dims = Array.of_list (List.map (compile_dim ~slot) (Access.indices access)) }
  in
  { n_spatial;
    entries =
      Array.of_list
        (List.map entry
           (Expr.accesses (Compute.body compute)
           @ Compute.epilogue_accesses compute)) }

(* Every evaluation below reads tiles from one int row indexed by slot:
   the state's effective tiles at one level, or a scratch copy of them
   with one slot overridden (the edge scorer). *)
let rec general_interval row g =
  let bin op a b = op (general_interval row a) (general_interval row b) in
  match g with
  | Slot s -> Interval.v 0 (row.(s) - 1)
  | Const n -> Interval.point n
  | Add (a, b) -> bin Interval.add a b
  | Sub (a, b) -> bin Interval.sub a b
  | Mul (a, b) -> bin Interval.mul a b
  | Div (a, b) -> bin Interval.div a b
  | Mod (a, b) -> bin Interval.rem a b
  | Min (a, b) -> bin Interval.min_ a b
  | Max (a, b) -> bin Interval.max_ a b

let dim_extent row = function
  | Affine { slots; coeffs } ->
    let ext = ref 1 in
    for k = 0 to Array.length slots - 1 do
      ext := !ext + (coeffs.(k) * (row.(slots.(k)) - 1))
    done;
    !ext
  | General g -> Interval.extent (general_interval row g)

let entry_elems row entry =
  let elems = ref 1 in
  for d = 0 to Array.length entry.dims - 1 do
    elems := !elems * dim_extent row entry.dims.(d)
  done;
  !elems

(* The search hot path: no lists, no name lookups, no allocation on affine
   accesses. *)
let input_bytes t row =
  let bytes = ref 0 in
  for i = 0 to Array.length t.entries - 1 do
    let entry = t.entries.(i) in
    bytes := !bytes + (entry_elems row entry * entry.elem_bytes)
  done;
  !bytes
