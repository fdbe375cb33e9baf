(* Text codec for the schedulable part of an ETIR state: level count,
   construction cursor, every raw spatial/reduce tile and the vthread
   vector.  The compute definition is *not* embedded — an artifact encodes
   it once via {!Compute_codec} and [decode] builds the state from the
   decoded rows against it in one step ([Etir.of_rows]), which re-checks
   the structural invariants so corrupt tiles are rejected instead of
   mis-loaded. *)

open Sched

let ( let* ) = Result.bind

let encode b e =
  let ns = Etir.num_spatial e and nr = Etir.num_reduce e in
  let levels = Etir.num_levels e in
  let ints k xs = Codec.field b k (fun b -> List.iter (Codec.int b)) xs in
  ints "etir" [ levels; Etir.cur_level e ];
  for l = 0 to levels do
    ints "stile" (l :: List.init ns (fun d -> Etir.stile e ~level:l ~dim:d))
  done;
  for l = 0 to levels do
    ints "rtile" (l :: List.init nr (fun d -> Etir.rtile e ~level:l ~dim:d))
  done;
  ints "vthread" (List.init ns (fun d -> Etir.vthread e ~dim:d))

(* One row of [dims] integers after [key], checked for its length. *)
let ints_row l key ~dims =
  let* vals = Codec.get_ints l in
  let n = List.length vals in
  if n = dims then Ok (Array.of_list vals)
  else
    Codec.error (Codec.line_number l)
      "%s row has %d entries, schedule has %d dimensions" key n dims

(* One tile row per level, [0 .. num_levels]. *)
let tile_rows cur key ~num_levels ~dims =
  let rows = Array.make (num_levels + 1) [||] in
  let rec go level =
    if level > num_levels then Ok rows
    else
      let* l = Codec.line cur key in
      let* lv = Codec.get_int l in
      let* () =
        if lv = level then Ok ()
        else
          Codec.error (Codec.line_number l)
            "expected %s row for level %d, got %d" key level lv
      in
      let* row = ints_row l key ~dims in
      rows.(level) <- row;
      go (level + 1)
  in
  go 0

let decode ~compute cur =
  let start = Codec.lineno cur in
  let* l = Codec.line cur "etir" in
  let ln0 = Codec.line_number l in
  let* num_levels = Codec.get_int l in
  let* cur_level = Codec.get_int l in
  let* () = Codec.close l in
  let* () =
    if num_levels >= 1 && num_levels <= 8 then Ok ()
    else Codec.error ln0 "implausible level count %d" num_levels
  in
  let* () =
    if cur_level >= 0 && cur_level <= num_levels then Ok ()
    else Codec.error ln0 "cur_level %d outside [0, %d]" cur_level num_levels
  in
  let ns = List.length (Tensor_lang.Compute.spatial_axes compute) in
  let nr = List.length (Tensor_lang.Compute.reduce_axes compute) in
  let* stiles = tile_rows cur "stile" ~num_levels ~dims:ns in
  let* rtiles = tile_rows cur "rtile" ~num_levels ~dims:nr in
  let* vthreads =
    let* l = Codec.line cur "vthread" in
    ints_row l "vthread" ~dims:ns
  in
  match Etir.of_rows compute ~cur_level ~stiles ~rtiles ~vthreads with
  | Ok e -> Ok e
  | Error m -> Codec.error start "decoded state violates invariant: %s" m
