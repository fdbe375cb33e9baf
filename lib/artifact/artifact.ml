(* First-class compilation artifacts (ISSUE 3).

   [Artifact.t] is an alias for {!Record.t}: a tuned schedule plus
   everything needed to reuse it — compute definition, ETIR configuration,
   predicted metrics, target device and provenance — serialized through the
   versioned, checksummed text codec and persisted by {!Store}. *)

module Codec = Codec
module Compute_codec = Compute_codec
module Etir_codec = Etir_codec
module Metrics_codec = Metrics_codec
module Gpu_codec = Gpu_codec
module Verify_codec = Verify_codec
module Cert_codec = Cert_codec
module Record = Record
module Store = Store
include Record
