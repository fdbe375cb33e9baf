(* Prints one fixture's kernel and host text: [dump.exe NAME]. The
   runtest alias diffs the output against golden/NAME.cu; after an
   intended change to the printer, [dune promote] rewrites the file. *)

let () =
  let name = Sys.argv.(1) in
  let etir = (List.assoc name Fixtures.all) () in
  print_string (Codegen.Cuda.emit etir);
  print_string "// host\n";
  print_string (Codegen.Cuda.emit_host etir)
