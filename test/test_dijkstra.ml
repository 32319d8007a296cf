module Netgraph = Ppet_digraph.Netgraph
module Dijkstra = Ppet_digraph.Dijkstra
module Prng = Ppet_digraph.Prng
module Csr = Ppet_digraph.Csr

let simple () =
  (* 0 -e0(1)-> 1 -e1(1)-> 2 ; 0 -e2(3)-> 2 *)
  let g = Netgraph.create 3 in
  let e0 = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let e1 = Netgraph.add_net g ~src:1 ~sinks:[ 2 ] in
  let e2 = Netgraph.add_net g ~src:0 ~sinks:[ 2 ] in
  let w = [| 1.0; 1.0; 3.0 |] in
  (g, (fun e -> w.(e)), e0, e1, e2)

let test_shortest () =
  let g, dist, _, _, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  Alcotest.(check (float 1e-9)) "d0" 0.0 t.Dijkstra.dist.(0);
  Alcotest.(check (float 1e-9)) "d1" 1.0 t.Dijkstra.dist.(1);
  Alcotest.(check (float 1e-9)) "d2" 2.0 t.Dijkstra.dist.(2)

let test_tree_nets () =
  let g, dist, e0, e1, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  let nets = Array.copy t.Dijkstra.tree_nets in
  Array.sort compare nets;
  Alcotest.(check (array int)) "tree follows cheap path" [| e0; e1 |] nets

let test_path_to () =
  let g, dist, e0, e1, _ = simple () in
  let t = Dijkstra.run g ~dist ~src:0 in
  Alcotest.(check (list int)) "path" [ e0; e1 ] (Dijkstra.path_to t g 2)

let test_unreachable () =
  let g = Netgraph.create 3 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let t = Dijkstra.run g ~dist:(fun _ -> 1.0) ~src:0 in
  Alcotest.(check bool) "2 unreachable" true (t.Dijkstra.dist.(2) = infinity);
  Alcotest.check_raises "path raises" Not_found (fun () ->
      ignore (Dijkstra.path_to t g 2))

let test_multisink_costs_once () =
  (* one net reaching two sinks: both get distance = weight of that net *)
  let g = Netgraph.create 3 in
  let e = Netgraph.add_net g ~src:0 ~sinks:[ 1; 2 ] in
  let t = Dijkstra.run g ~dist:(fun _ -> 2.5) ~src:0 in
  Alcotest.(check (float 1e-9)) "sink1" 2.5 t.Dijkstra.dist.(1);
  Alcotest.(check (float 1e-9)) "sink2" 2.5 t.Dijkstra.dist.(2);
  Alcotest.(check (array int)) "tree has one net" [| e |] t.Dijkstra.tree_nets

let test_negative_rejected () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.run: negative net distance") (fun () ->
      ignore (Dijkstra.run g ~dist:(fun _ -> -1.0) ~src:0))

(* property: triangle inequality of the computed distances over the
   relaxation structure, and tree consistency d(v) = d(src e) + w(e) *)
let prop_relaxed =
  QCheck.Test.make ~name:"dijkstra fixpoint: no edge can relax further" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 5)) in
      let n = 2 + Prng.int rng 30 in
      let g = Netgraph.create n in
      let m = 3 * n in
      let w = Array.init m (fun _ -> Prng.float rng 10.0) in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let k = 1 + Prng.int rng 3 in
        let sinks = List.init k (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let t = Dijkstra.run g ~dist:(fun e -> w.(e)) ~src:0 in
      let ok = ref true in
      Netgraph.iter_nets g (fun e ~src ~sinks ->
          Array.iter
            (fun v ->
              if t.Dijkstra.dist.(src) +. w.(e) < t.Dijkstra.dist.(v) -. 1e-9
              then ok := false)
            sinks);
      (* via-net consistency *)
      for v = 0 to n - 1 do
        let e = t.Dijkstra.via.(v) in
        if e >= 0 then begin
          let s = Netgraph.net_src g e in
          if abs_float (t.Dijkstra.dist.(s) +. w.(e) -. t.Dijkstra.dist.(v)) > 1e-9
          then ok := false
        end
      done;
      !ok)

(* property: a workspace reused across many runs (different sources,
   different weights) gives exactly what fresh runs give — distances,
   via nets, and tree_nets in the same order *)
let prop_run_into_reuse =
  QCheck.Test.make ~name:"run_into reuse = fresh run" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 17)) in
      let n = 2 + Prng.int rng 25 in
      let g = Netgraph.create n in
      let m = 3 * n in
      let w = Array.init m (fun _ -> Prng.float rng 10.0) in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let sinks = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let ws = Dijkstra.workspace g in
      let ok = ref true in
      for round = 0 to 4 do
        let dist e = w.(e) +. float_of_int round in
        let src = Prng.int rng n in
        let fresh = Dijkstra.run g ~dist ~src in
        let reused = Dijkstra.run_into ws g ~dist ~src in
        if
          Array.to_list reused.Dijkstra.dist <> Array.to_list fresh.Dijkstra.dist
          || Array.to_list reused.Dijkstra.via <> Array.to_list fresh.Dijkstra.via
          || reused.Dijkstra.tree_nets <> fresh.Dijkstra.tree_nets
        then ok := false
      done;
      !ok)

(* property: the flat kernel settles the same vertices through the same
   nets as run_into, run after run on one kernel. Weights drawn from
   {1, 2, 3} make equal distances common, so the heap's tie order
   decides many via nets. *)
let prop_flat_matches_run_into =
  QCheck.Test.make ~name:"flat kernel = run_into" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 29)) in
      let n = 2 + Prng.int rng 40 in
      let g = Netgraph.create n in
      let m = 3 * n in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let sinks = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let w = Array.init m (fun _ -> float_of_int (1 + Prng.int rng 3)) in
      let ws = Dijkstra.workspace g in
      let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
      let ok = ref true in
      for _ = 0 to 5 do
        let src = Prng.int rng n in
        let tree = Dijkstra.run_into ws g ~dist:(fun e -> w.(e)) ~src in
        let count = Dijkstra.Flat.run flat ~dist:w ~src in
        let nets = Array.sub (Dijkstra.Flat.tree_nets flat) 0 count in
        Array.sort compare nets;
        let want = Array.copy tree.Dijkstra.tree_nets in
        Array.sort compare want;
        let reached =
          Array.fold_left (fun k d -> if d < infinity then k + 1 else k) 0
            tree.Dijkstra.dist
        in
        if nets <> want || Dijkstra.Flat.settled flat <> reached then ok := false;
        (* later runs see the distances this tree would have raised *)
        Array.iter (fun e -> w.(e) <- w.(e) +. 1.0) want
      done;
      !ok)

let test_flat_recovers_after_error () =
  let g = Netgraph.create 3 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 2 ] in
  let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.run: negative net distance") (fun () ->
      ignore (Dijkstra.Flat.run flat ~dist:[| 1.0; -1.0 |] ~src:0));
  let count = Dijkstra.Flat.run flat ~dist:[| 1.0; 1.0 |] ~src:1 in
  Alcotest.(check (array int)) "fresh tree after the failed run" [| 1 |]
    (Array.sub (Dijkstra.Flat.tree_nets flat) 0 count);
  Alcotest.(check int) "settled" 2 (Dijkstra.Flat.settled flat)

let test_run_into_too_small () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let ws = Dijkstra.workspace g in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 0 ] in
  Alcotest.check_raises "stale workspace"
    (Invalid_argument "Dijkstra.run_into: workspace too small for this graph")
    (fun () -> ignore (Dijkstra.run_into ws g ~dist:(fun _ -> 1.0) ~src:0))

let suite =
  [
    Alcotest.test_case "shortest distances" `Quick test_shortest;
    Alcotest.test_case "tree nets" `Quick test_tree_nets;
    Alcotest.test_case "path reconstruction" `Quick test_path_to;
    Alcotest.test_case "unreachable vertices" `Quick test_unreachable;
    Alcotest.test_case "multi-sink net costs once" `Quick test_multisink_costs_once;
    Alcotest.test_case "negative distance rejected" `Quick test_negative_rejected;
    Alcotest.test_case "run_into rejects a stale workspace" `Quick test_run_into_too_small;
    QCheck_alcotest.to_alcotest prop_relaxed;
    QCheck_alcotest.to_alcotest prop_run_into_reuse;
    Alcotest.test_case "flat kernel recovers after an error" `Quick
      test_flat_recovers_after_error;
    QCheck_alcotest.to_alcotest prop_flat_matches_run_into;
  ]
