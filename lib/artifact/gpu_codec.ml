(* Text codec for {!Hardware.Gpu_spec.t} plus a short device fingerprint.

   A compiled schedule is only valid for the device it was tuned against, so
   every artifact embeds the full spec (making files self-describing) and
   the store keys entries by [fingerprint] — a 12-hex-digit digest of the
   canonical encoding, cheap to compare and stable across builds.  Decoding
   re-validates through [Gpu_spec.v] / [Mem_level.v]. *)

open Hardware

let ( let* ) = Result.bind

let scope_atom = function
  | Mem_level.Per_thread -> "per-thread"
  | Mem_level.Per_block -> "per-block"
  | Mem_level.Device -> "device"

let scope_of_atom ~line = function
  | "per-thread" -> Ok Mem_level.Per_thread
  | "per-block" -> Ok Mem_level.Per_block
  | "device" -> Ok Mem_level.Device
  | other -> Codec.error line "unknown memory scope %S" other

let encode b (hw : Gpu_spec.t) =
  let line k = Codec.field b k in
  line "gpu" Codec.str (Gpu_spec.name hw);
  line "sm_count" Codec.int (Gpu_spec.sm_count hw);
  line "cores_per_sm" Codec.int (Gpu_spec.cores_per_sm hw);
  line "clock_ghz" Codec.float (Gpu_spec.clock_ghz hw);
  line "warp_size" Codec.int (Gpu_spec.warp_size hw);
  line "max_threads_per_sm" Codec.int (Gpu_spec.max_threads_per_sm hw);
  line "max_threads_per_block" Codec.int (Gpu_spec.max_threads_per_block hw);
  line "registers_per_sm" Codec.int (Gpu_spec.registers_per_sm hw);
  line "power_watts" Codec.float (Gpu_spec.power_watts hw);
  line "mem_levels" Codec.int (Gpu_spec.num_levels hw);
  Array.iter
    (fun lv ->
      Codec.key b "level";
      Codec.str b (Mem_level.name lv);
      Codec.atom b (scope_atom (Mem_level.scope lv));
      Codec.int b (Mem_level.capacity_bytes lv);
      Codec.float b (Mem_level.bandwidth_gbs lv);
      Codec.float b (Mem_level.latency_cycles lv);
      Codec.int b (Mem_level.banks lv);
      Codec.int b (Mem_level.bank_width_bytes lv);
      Codec.eol b)
    (Gpu_spec.levels hw)

let rec times n f acc =
  if n <= 0 then Ok (List.rev acc)
  else
    let* x = f () in
    times (n - 1) f (x :: acc)

let decode cur =
  let start = Codec.lineno cur in
  let* name = Codec.field_str cur "gpu" in
  let* sm_count = Codec.field_int cur "sm_count" in
  let* cores_per_sm = Codec.field_int cur "cores_per_sm" in
  let* clock_ghz = Codec.field_float cur "clock_ghz" in
  let* warp_size = Codec.field_int cur "warp_size" in
  let* max_threads_per_sm = Codec.field_int cur "max_threads_per_sm" in
  let* max_threads_per_block = Codec.field_int cur "max_threads_per_block" in
  let* registers_per_sm = Codec.field_int cur "registers_per_sm" in
  let* power_watts = Codec.field_float cur "power_watts" in
  let* n_levels = Codec.field_int cur "mem_levels" in
  let* () =
    if n_levels >= 3 && n_levels <= 8 then Ok ()
    else Codec.error start "implausible memory level count %d" n_levels
  in
  let* levels =
    times n_levels
      (fun () ->
        let* l = Codec.line cur "level" in
        let ln = Codec.line_number l in
        let* lname = Codec.get_str l in
        let* sc = Codec.get_atom l in
        let* scope = scope_of_atom ~line:ln sc in
        let* capacity_bytes = Codec.get_int l in
        let* bandwidth_gbs = Codec.get_float l in
        let* latency_cycles = Codec.get_float l in
        let* banks = Codec.get_int l in
        let* bank_width_bytes = Codec.get_int l in
        let* () = Codec.close l in
        match
          Mem_level.v ~name:lname ~scope ~capacity_bytes ~bandwidth_gbs
            ~latency_cycles ~banks ~bank_width_bytes ()
        with
        | exception Invalid_argument m ->
          Codec.error ln "invalid memory level: %s" m
        | lv -> Ok lv)
      []
  in
  match
    Gpu_spec.v ~name ~sm_count ~cores_per_sm ~clock_ghz ~warp_size
      ~max_threads_per_sm ~max_threads_per_block ~registers_per_sm
      ~power_watts ~levels:(Array.of_list levels)
  with
  | exception Invalid_argument m ->
    Codec.error start "invalid device spec: %s" m
  | hw -> Ok hw

let fingerprint hw =
  String.sub (Codec.digest_lines (Codec.to_string encode hw)) 0 12
