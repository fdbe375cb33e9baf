(* Scheduling primitives — the edges of the construction graph (paper §IV-A,
   "Actions").

   Tiling grows or shrinks one dimension's tile at the level currently being
   scheduled (Fig. 5a); the shrink direction is the paper's inverse-tiling
   action that makes same-level states mutually reachable (§IV-D
   irreducibility).  [Cache] switches scheduling to the next faster memory
   level (Fig. 5b).  [Set_vthread] adjusts the virtual-thread count of a
   spatial dimension (Fig. 5c). *)

type dir = Grow | Shrink

type t =
  | Tile of { level : int; dim : int; dir : dir }
  | Rtile of { level : int; dim : int; dir : dir }
  | Cache
  | Set_vthread of { dim : int; dir : dir }

let dir_to_string = function Grow -> "+" | Shrink -> "-"

let to_string = function
  | Tile { level; dim; dir } -> Fmt.str "tile%s(l%d,d%d)" (dir_to_string dir) level dim
  | Rtile { level; dim; dir } ->
    Fmt.str "rtile%s(l%d,r%d)" (dir_to_string dir) level dim
  | Cache -> "cache"
  | Set_vthread { dim; dir } -> Fmt.str "vthread%s(d%d)" (dir_to_string dir) dim

let pp ppf t = Fmt.string ppf (to_string t)

(* Which cost-model components an action can change — the invalidation
   footprint incremental evaluation consults (DESIGN.md §10).  Effective
   tiles at level [k] are the max of the raw tiles at levels 0..k, so a
   tile edit at level [l] can only move per-level traffic/footprint terms
   at levels >= l.  Occupancy reads the block shape (thread and block
   tiles, i.e. levels 0 and 1) and the level-0/1 footprints; the
   bank-conflict stride reads the level-0 spatial tile and the vthread
   vector; the ILP chunk reads the level-0 tiles.  [Cache] moves only the
   construction cursor, which no evaluated quantity depends on. *)
type invalidation = {
  inv_levels_from : int option;
      (* per-level traffic and footprint terms at levels >= l are stale;
         [None] = all per-level terms reusable *)
  inv_occupancy : bool;
  inv_conflict : bool;
  inv_chunk : bool;  (* per-thread unroll chunk (ILP term) *)
}

let nothing_invalid =
  { inv_levels_from = None; inv_occupancy = false; inv_conflict = false;
    inv_chunk = false }

let invalidation = function
  | Tile { level; _ } ->
    { inv_levels_from = Some level;
      inv_occupancy = level <= 1;
      inv_conflict = level = 0;
      inv_chunk = level = 0 }
  | Rtile { level; _ } ->
    { inv_levels_from = Some level;
      inv_occupancy = level <= 1;  (* via the level-0/1 footprints *)
      inv_conflict = false;
      inv_chunk = level = 0 }
  | Cache -> nothing_invalid
  | Set_vthread _ -> { nothing_invalid with inv_conflict = true }

(* Doubling with an extent cap: tiles take values 1, 2, 4, ..., extent;
   -1 = no legal size. *)
let grow_size size extent =
  if size >= extent then -1 else Int.min (size * 2) extent
let shrink_size size = if size <= 1 then -1 else size / 2

(* The legality rule of every action, shared by [apply] and the edge
   scorer: the value the action writes into the one slot it edits (a tile
   size, a vthread count, or the new cursor level), or -1 when the action
   is illegal from [etir]. *)
let target etir action =
  match action with
  | Tile { level; dim; dir } ->
    if level < 0 || level > Etir.num_levels etir then -1
    else if dim < 0 || dim >= Etir.num_spatial etir then -1
    else begin
      let size = Etir.stile etir ~level ~dim in
      match dir with
      | Grow -> grow_size size (Etir.spatial_extents etir).(dim)
      | Shrink ->
        (* At level 0 the tile must stay wide enough for the configured
           vthread stripes. *)
        let floor_ = if level = 0 then Etir.vthread etir ~dim else 1 in
        let s = shrink_size size in
        if s >= floor_ then s else -1
    end
  | Rtile { level; dim; dir } ->
    if level < 0 || level > Etir.num_levels etir then -1
    else if dim < 0 || dim >= Etir.num_reduce etir then -1
    else begin
      let size = Etir.rtile etir ~level ~dim in
      match dir with
      | Grow -> grow_size size (Etir.reduce_extents etir).(dim)
      | Shrink -> shrink_size size
    end
  | Cache -> Etir.cur_level etir - 1
  | Set_vthread { dim; dir } ->
    if dim < 0 || dim >= Etir.num_spatial etir then -1
    else begin
      let v = Etir.vthread etir ~dim in
      match dir with
      | Grow ->
        (* Virtual threads interleave stripes of the per-thread tile; the
           stripe width cannot go below one element. *)
        if v * 2 <= Etir.stile etir ~level:0 ~dim then v * 2 else -1
      | Shrink -> if v <= 1 then -1 else v / 2
    end

let apply etir action =
  let v = target etir action in
  if v < 0 then None
  else
    Some
      (match action with
      | Tile { level; dim; _ } -> Etir.with_stile etir ~level ~dim v
      | Rtile { level; dim; _ } -> Etir.with_rtile etir ~level ~dim v
      | Cache -> Etir.with_cur_level etir v
      | Set_vthread { dim; _ } -> Etir.with_vthread etir ~dim v)

(* All syntactically plausible actions from a state: tiling (both
   directions) of every dimension at the level being scheduled and at every
   already-scheduled (outer) level — scheduled levels stay adjustable, the
   backtracking flexibility of the graph — plus the cache switch and vthread
   adjustments.  Legality is decided by [apply]. *)
let candidates etir =
  let levels =
    List.init
      (Etir.num_levels etir - Etir.cur_level etir + 1)
      (fun i -> Etir.cur_level etir + i)
  in
  let spatial =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun dim ->
            [ Tile { level; dim; dir = Grow };
              Tile { level; dim; dir = Shrink } ])
          (List.init (Etir.num_spatial etir) Fun.id))
      levels
  in
  let reduce =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun dim ->
            [ Rtile { level; dim; dir = Grow };
              Rtile { level; dim; dir = Shrink } ])
          (List.init (Etir.num_reduce etir) Fun.id))
      levels
  in
  let vthreads =
    List.concat_map
      (fun dim ->
        [ Set_vthread { dim; dir = Grow }; Set_vthread { dim; dir = Shrink } ])
      (List.init (Etir.num_spatial etir) Fun.id)
  in
  spatial @ reduce @ vthreads @ [ Cache ]

(* Legal (action, successor) pairs — the outgoing edges of the construction
   graph at [etir]. *)
let successors etir =
  List.filter_map
    (fun action ->
      match apply etir action with
      | Some next -> Some (action, next)
      | None -> None)
    (candidates etir)
