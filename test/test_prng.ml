module Prng = Ppet_digraph.Prng

let test_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

(* the published splitmix64 output for seed 0 *)
let test_reference_vectors () =
  let g = Prng.create 0L in
  List.iter
    (fun want -> Alcotest.(check int64) "splitmix64 seed 0" want (Prng.next_int64 g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
      0xF88BB8A8724C81ECL ]

let test_int_allocates_nothing () =
  let g = Prng.create 21L in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int g 1000
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k draws allocate %.0f minor words" words)
    true (words < 64.)

let test_different_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let xs = List.init 16 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 16 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy_independent () =
  let a = Prng.create 7L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_int_bounds () =
  let g = Prng.create 9L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_bad_bound () =
  let g = Prng.create 9L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_float_bounds () =
  let g = Prng.create 11L in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_int_covers_values () =
  let g = Prng.create 3L in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int g 4) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all (fun b -> b) seen)

let test_bool_mixes () =
  let g = Prng.create 5L in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool g then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 350 && !trues < 650)

let test_shuffle_permutation () =
  let g = Prng.create 13L in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_pick_member () =
  let g = Prng.create 17L in
  let a = [| 3; 5; 7 |] in
  for _ = 1 to 50 do
    let v = Prng.pick g a in
    Alcotest.(check bool) "member" true (Array.exists (fun x -> x = v) a)
  done

let test_pick_empty () =
  let g = Prng.create 17L in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick g [||]))

let suite =
  [
    Alcotest.test_case "deterministic stream" `Quick test_deterministic;
    Alcotest.test_case "splitmix64 reference vectors" `Quick test_reference_vectors;
    Alcotest.test_case "int allocates nothing" `Quick test_int_allocates_nothing;
    Alcotest.test_case "seeds differ" `Quick test_different_seeds;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "int within bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "float within bounds" `Quick test_float_bounds;
    Alcotest.test_case "int covers all residues" `Quick test_int_covers_values;
    Alcotest.test_case "bool is balanced" `Quick test_bool_mixes;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "pick returns member" `Quick test_pick_member;
    Alcotest.test_case "pick rejects empty" `Quick test_pick_empty;
  ]
