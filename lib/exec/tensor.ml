(* Dense row-major float tensors for the CPU executor. *)

type t = { shape : int array; strides : int array; data : float array }

let strides_of shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let numel shape = Array.fold_left ( * ) 1 shape

let create ?(init = 0.0) shape =
  let shape = Array.of_list shape in
  if Array.exists (fun d -> d <= 0) shape then
    invalid_arg "Tensor.create: non-positive dimension";
  { shape; strides = strides_of shape; data = Array.make (numel shape) init }

let shape t = Array.to_list t.shape
let size t = Array.length t.data

let offset t coords =
  let n = Array.length t.shape in
  if List.length coords <> n then invalid_arg "Tensor.offset: rank mismatch";
  let off = ref 0 in
  List.iteri
    (fun i c ->
      if c < 0 || c >= t.shape.(i) then
        invalid_arg
          (Fmt.str "Tensor.offset: index %d out of bounds [0,%d) at dim %d" c
             t.shape.(i) i);
      off := !off + (c * t.strides.(i)))
    coords;
  !off

let get t coords = t.data.(offset t coords)
let set t coords v = t.data.(offset t coords) <- v

let init shape f =
  let t = create shape in
  let n = Array.length t.shape in
  let coords = Array.make n 0 in
  let rec go dim =
    if dim = n then begin
      let off = ref 0 in
      Array.iteri (fun i c -> off := !off + (c * t.strides.(i))) coords;
      t.data.(!off) <- f (Array.to_list coords)
    end
    else
      for c = 0 to t.shape.(dim) - 1 do
        coords.(dim) <- c;
        go (dim + 1)
      done
  in
  go 0;
  t

let fill_random rng t =
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- Sched.Rng.float rng -. 0.5
  done

let coords_of_offset t off =
  let shape = t.shape in
  let n = Array.length shape in
  let coords = Array.make n 0 in
  let rem = ref off in
  for i = n - 1 downto 0 do
    coords.(i) <- !rem mod shape.(i);
    rem := !rem / shape.(i)
  done;
  Array.to_list coords

(* The two compares are direct loops that call no function per element:
   a call (a float closure, [Float.max], [Int64.equal]) boxes its
   operands. *)
let check_shapes ~what a b =
  if a.shape <> b.shape then invalid_arg (what ^ ": shape mismatch")

(* The pair at row-major offset [i], or [None] past the end. *)
let pair_at a b i =
  if i = Array.length a.data then None
  else Some (coords_of_offset a i, a.data.(i), b.data.(i))

(* Mixed relative + absolute comparison.  A fixed absolute tolerance
   mis-fires in both directions once reduction depth grows: accumulated
   magnitudes make legitimate fp-reassociation error exceed it, and tiny
   outputs can hide real bugs under it.  [rtol] scales with the larger
   operand; [atol] keeps near-zero elements comparable.  The old
   absolute-only behaviour is [~rtol:0.0 ~atol:tol]. *)
let first_mismatch ?(atol = 1e-6) ?(rtol = 1e-4) a b =
  check_shapes ~what:"Tensor.first_mismatch" a b;
  let da = a.data and db = b.data in
  let n = Array.length da in
  let i = ref 0 in
  while
    !i < n
    &&
    let x = Array.unsafe_get da !i and y = Array.unsafe_get db !i in
    let ax = Float.abs x and ay = Float.abs y in
    (* [Float.max ax ay] but for NaN, which fails the test either way *)
    Float.abs (x -. y) <= atol +. (rtol *. if ax >= ay then ax else ay)
  do
    incr i
  done;
  pair_at a b !i

let first_bit_mismatch a b =
  check_shapes ~what:"Tensor.first_bit_mismatch" a b;
  let da = a.data and db = b.data in
  let n = Array.length da in
  let i = ref 0 in
  while
    !i < n
    &&
    let x = Array.unsafe_get da !i and y = Array.unsafe_get db !i in
    (* Equal non-zero floats have equal bits; zeros and NaNs take the
       exact test (a C call). *)
    (x = y && x <> 0.0) || Int64.bits_of_float x = Int64.bits_of_float y
  do
    incr i
  done;
  pair_at a b !i

let unsafe_data t = t.data
let strides t = t.strides

(* Zero-pad the two trailing (spatial) dimensions of an NCHW tensor; used to
   materialise the pre-padded inputs convolution definitions read. *)
let pad_hw t ~pad =
  match Array.to_list t.shape with
  | [ n; c; h; w ] ->
    let padded = create [ n; c; h + (2 * pad); w + (2 * pad) ] in
    for in_ = 0 to n - 1 do
      for ch = 0 to c - 1 do
        for y = 0 to h - 1 do
          for x = 0 to w - 1 do
            set padded [ in_; ch; y + pad; x + pad ] (get t [ in_; ch; y; x ])
          done
        done
      done
    done;
    padded
  | _ -> invalid_arg "Tensor.pad_hw: expected a rank-4 tensor"

let pp ppf t =
  Fmt.pf ppf "tensor[%a] (%d elems)"
    Fmt.(array ~sep:(any "x") int)
    t.shape (size t)
