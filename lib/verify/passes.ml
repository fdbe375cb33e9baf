(* Shared pass composition of the legality verifier.

   [Verify.run] and the certificate engine's corner validation ([Cert])
   must agree on exactly which checks constitute "legal": this module is
   the single place the §IV-C capacity/launch checks are folded in with the
   analysis passes, so the two cannot drift.

   Each pass runs inside a {!Trace.with_span} so pass-level latency shows
   up in pipeline traces; counter bookkeeping lives in [Verify] (top-level
   runs only — the certificate engine's internal corner probes should not
   inflate [verify.runs]). *)

(* §IV-C capacity and launch limits as bounds-pass errors: a schedule that
   does not fit its hardware level must not ship, same as an out-of-bounds
   access. *)
let capacity etir ~hw =
  List.map
    (fun v ->
      let loc, code =
        if v.Costmodel.Mem_check.level < 0 then ("launch limits", "GSR-B09")
        else
          (Fmt.str "level %d capacity" v.Costmodel.Mem_check.level, "GSR-B10")
      in
      Diagnostic.v ~code Diagnostic.Error Diagnostic.Bounds ~loc "%a"
        Costmodel.Mem_check.pp_violation v)
    (Costmodel.Mem_check.check etir ~hw)

(* Checks that need only the scheduled state: capacity/launch plus the
   interval bounds pass. *)
let static_checks etir ~hw =
  Trace.with_span ~name:"verify.capacity" (fun () -> capacity etir ~hw)
  @ Trace.with_span ~name:"verify.bounds" (fun () -> Bounds.check etir)

(* The state's checks, then race and lint over its kernel tree. *)
let run ?kernel etir ~hw =
  let kernel =
    match kernel with Some k -> k | None -> Codegen.Cuda.lower etir
  in
  static_checks etir ~hw
  @ Trace.with_span ~name:"verify.race" (fun () -> Race.check etir kernel)
  @ Trace.with_span ~name:"verify.lint" (fun () -> Lint.check etir kernel)
