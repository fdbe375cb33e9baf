(* Integer index expressions over loop variables.

   These appear as the coordinates of tensor accesses, e.g. the input access
   of a strided convolution reads [I[n][c][s*x + i][s*y + j]].  The smart
   constructors fold constants so that interval analysis and evaluation stay
   cheap on deeply nested expressions. *)

type t =
  | Var of string
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (* floor division, divisor must evaluate > 0 *)
  | Mod of t * t  (* remainder, divisor must evaluate > 0 *)
  | Min of t * t
  | Max of t * t

let var name = Var name
let const n = Const n

let add a b =
  match (a, b) with
  | Const 0, x | x, Const 0 -> x
  | Const m, Const n -> Const (m + n)
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | x, Const 0 -> x
  | Const m, Const n -> Const (m - n)
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, x | x, Const 1 -> x
  | Const m, Const n -> Const (m * n)
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | x, Const 1 -> x
  | Const m, Const n when n > 0 ->
    (* floor division on possibly negative numerators *)
    let q = if m >= 0 then m / n else -(((-m) + n - 1) / n) in
    Const q
  | _ -> Div (a, b)

let rem a b =
  match (a, b) with
  | _, Const 1 -> Const 0
  | Const m, Const n when n > 0 -> Const (((m mod n) + n) mod n)
  | _ -> Mod (a, b)

let min_ a b =
  match (a, b) with Const m, Const n -> Const (Int.min m n) | _ -> Min (a, b)

let max_ a b =
  match (a, b) with Const m, Const n -> Const (Int.max m n) | _ -> Max (a, b)

let floordiv m n = if m >= 0 then m / n else -(((-m) + n - 1) / n)
let floormod m n = ((m mod n) + n) mod n

let rec eval ~env t =
  match t with
  | Var name -> env name
  | Const n -> n
  | Add (a, b) -> eval ~env a + eval ~env b
  | Sub (a, b) -> eval ~env a - eval ~env b
  | Mul (a, b) -> eval ~env a * eval ~env b
  | Div (a, b) ->
    let d = eval ~env b in
    if d <= 0 then invalid_arg "Index.eval: division by non-positive value";
    floordiv (eval ~env a) d
  | Mod (a, b) ->
    let d = eval ~env b in
    if d <= 0 then invalid_arg "Index.eval: modulo by non-positive value";
    floormod (eval ~env a) d
  | Min (a, b) -> Int.min (eval ~env a) (eval ~env b)
  | Max (a, b) -> Int.max (eval ~env a) (eval ~env b)

let rec fold_vars f acc t =
  match t with
  | Var name -> f acc name
  | Const _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
    fold_vars f (fold_vars f acc a) b

let vars t =
  let add_unique acc name = if List.mem name acc then acc else name :: acc in
  List.rev (fold_vars add_unique [] t)

let rec subst ~bindings t =
  match t with
  | Var name -> (
    match List.assoc_opt name bindings with Some e -> e | None -> t)
  | Const _ -> t
  | Add (a, b) -> add (subst ~bindings a) (subst ~bindings b)
  | Sub (a, b) -> sub (subst ~bindings a) (subst ~bindings b)
  | Mul (a, b) -> mul (subst ~bindings a) (subst ~bindings b)
  | Div (a, b) -> div (subst ~bindings a) (subst ~bindings b)
  | Mod (a, b) -> rem (subst ~bindings a) (subst ~bindings b)
  | Min (a, b) -> min_ (subst ~bindings a) (subst ~bindings b)
  | Max (a, b) -> max_ (subst ~bindings a) (subst ~bindings b)

let rec pp ppf t =
  match t with
  | Var name -> Fmt.string ppf name
  | Const n -> Fmt.int ppf n
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Fmt.pf ppf "(%a %% %a)" pp a pp b
  | Min (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b

let to_string t = Fmt.str "%a" pp t
