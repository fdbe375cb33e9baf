(* The domain pool — the invariants the optimiser hot paths rely on: order
   preservation, exception transparency and nested-map safety. *)

let check_int = Alcotest.(check int)

(* ---------- Pool ---------- *)

let test_map_preserves_order () =
  let pool = Parallel.Pool.create ~jobs:4 in
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "map = List.map" (List.map succ xs)
    (Parallel.Pool.map pool succ xs);
  Parallel.Pool.shutdown pool

let test_map_empty_and_singleton () =
  let pool = Parallel.Pool.create ~jobs:3 in
  Alcotest.(check (list int)) "empty" [] (Parallel.Pool.map pool succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parallel.Pool.map pool succ [ 1 ]);
  Parallel.Pool.shutdown pool

let test_jobs1_is_sequential () =
  let pool = Parallel.Pool.create ~jobs:1 in
  check_int "jobs floored at 1" 1 (Parallel.Pool.jobs pool);
  (* With one lane every application runs on the calling domain, in order. *)
  let order = ref [] in
  let result =
    Parallel.Pool.map pool
      (fun i ->
        order := i :: !order;
        i * i)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16 ] result;
  Alcotest.(check (list int)) "application order" [ 1; 2; 3; 4 ] (List.rev !order);
  Parallel.Pool.shutdown pool

exception Boom of int

let test_map_reraises_lowest_index () =
  let pool = Parallel.Pool.create ~jobs:4 in
  (match
     Parallel.Pool.map pool
       (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
       (List.init 64 (fun i -> i + 1))
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom i -> check_int "lowest failing index wins" 3 i);
  (* The pool stays usable after a failed map. *)
  Alcotest.(check (list int)) "pool survives" [ 2; 4 ]
    (Parallel.Pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
  Parallel.Pool.shutdown pool

let test_nested_map_runs_inline () =
  let pool = Parallel.Pool.create ~jobs:4 in
  (* A map issued from inside a worker task must not deadlock: it runs
     sequentially on the worker. *)
  let result =
    Parallel.Pool.map pool
      (fun i -> List.fold_left ( + ) 0 (Parallel.Pool.map pool Fun.id [ i; i; i ]))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check (list int)) "nested results" [ 3; 6; 9; 12; 15; 18; 21; 24 ] result;
  Parallel.Pool.shutdown pool

let test_map_auto_matches_sequential () =
  let xs = List.init 257 (fun i -> i - 128) in
  let f x = (x * 31) lxor 5 in
  Alcotest.(check (list int))
    "jobs=1" (List.map f xs)
    (Parallel.Pool.map_auto ~jobs:1 f xs);
  Alcotest.(check (list int))
    "jobs=4" (List.map f xs)
    (Parallel.Pool.map_auto ~jobs:4 f xs)

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
         Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
         Alcotest.test_case "jobs=1 is sequential" `Quick test_jobs1_is_sequential;
         Alcotest.test_case "re-raises lowest index" `Quick
           test_map_reraises_lowest_index;
         Alcotest.test_case "nested map runs inline" `Quick
           test_nested_map_runs_inline;
         Alcotest.test_case "map_auto matches sequential" `Quick
           test_map_auto_matches_sequential ]) ]
