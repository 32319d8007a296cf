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

(* [Flat.run] against [run_into] on one source: the same tree nets (as
   a set), settled count and decrease-key count, and the kernel's
   [hits]/[visits] accounting equal to counts derived from run_into's
   tree, which the [want_] arrays accumulate. Returns run_into's sorted
   tree nets. *)
let flat_agrees ~ok g ws flat ~w ~hits ~visits ~want_hits ~want_visits src =
  let tree = Dijkstra.run_into ws g ~dist:(fun e -> w.(e)) ~src in
  let count = Dijkstra.Flat.run flat ~dist:w ~hits ~visits ~src in
  let nets = Array.sub (Dijkstra.Flat.tree_nets flat) 0 count in
  Array.sort compare nets;
  let want = Array.copy tree.Dijkstra.tree_nets in
  Array.sort compare want;
  let reached =
    Array.fold_left (fun k d -> if d < infinity then k + 1 else k) 0 tree.Dijkstra.dist
  in
  Array.iter
    (fun e ->
      want_hits.(e) <- want_hits.(e) + 1;
      Array.iter (fun v -> want_visits.(v) <- want_visits.(v) + 1) (Netgraph.net_sinks g e))
    want;
  if
    nets <> want
    || Dijkstra.Flat.settled flat <> reached
    || Dijkstra.Flat.decreases flat <> tree.Dijkstra.decreases
    || hits <> want_hits || visits <> want_visits
  then ok := false;
  want

(* property: the flat kernel settles the same vertices through the same
   nets as run_into, twenty runs on one kernel, and does the same
   accounting. Weights drawn from {1, 2} make equal distances the rule,
   so the heap's tie order decides most via nets, and graphs of up to
   ~300 vertices give heaps deep enough for the bottom-up pop to walk
   several levels. *)
let prop_flat_matches_run_into =
  QCheck.Test.make ~name:"flat kernel = run_into" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 29)) in
      let n = 2 + Prng.int rng 300 in
      let g = Netgraph.create n in
      let m = 3 * n in
      for _ = 1 to m do
        let s = Prng.int rng n in
        let sinks = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
        ignore (Netgraph.add_net g ~src:s ~sinks)
      done;
      let w = Array.init m (fun _ -> float_of_int (1 + Prng.int rng 2)) in
      let ws = Dijkstra.workspace g in
      let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
      let hits = Array.make m 0 and visits = Array.make n 0 in
      let want_hits = Array.make m 0 and want_visits = Array.make n 0 in
      let ok = ref true in
      for _ = 1 to 20 do
        let src = Prng.int rng n in
        let tree =
          flat_agrees ~ok g ws flat ~w ~hits ~visits ~want_hits ~want_visits src
        in
        (* later runs see the distances this tree would have raised *)
        Array.iter (fun e -> w.(e) <- w.(e) +. 1.0) tree
      done;
      !ok)

(* A star whose pops see heaps of 1, 2 and 3 entries: source 0 reaches
   spokes 1..3 through nets of weight a, b, c, and every spoke reaches
   vertex 4 through a net of weight x, y, z. Popping from three entries
   vacates the root's right child, the sentinel slot; from two, the
   root's only child. Every weight choice in {1, 2, 3}^3 x {1, 2}^3. *)
let test_flat_star () =
  let g = Netgraph.create 5 in
  for s = 1 to 3 do
    ignore (Netgraph.add_net g ~src:0 ~sinks:[ s ])
  done;
  for s = 1 to 3 do
    ignore (Netgraph.add_net g ~src:s ~sinks:[ 4 ])
  done;
  let ws = Dijkstra.workspace g in
  let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
  let hits = Array.make 6 0 and visits = Array.make 5 0 in
  let want_hits = Array.make 6 0 and want_visits = Array.make 5 0 in
  let ok = ref true in
  let rec product = function
    | [] -> [ [] ]
    | choices :: rest ->
      List.concat_map (fun w -> List.map (List.cons w) (product rest)) choices
  in
  let spoke = [ 1.0; 2.0; 3.0 ] and into_4 = [ 1.0; 2.0 ] in
  List.iter
    (fun weights ->
      ignore
        (flat_agrees ~ok g ws flat ~w:(Array.of_list weights) ~hits ~visits
           ~want_hits ~want_visits 0))
    (product [ spoke; spoke; spoke; into_4; into_4; into_4 ]);
  Alcotest.(check bool) "every weighting settles like run_into" true !ok

let test_flat_recovers_after_error () =
  let g = Netgraph.create 3 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 2 ] in
  let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
  let hits = Array.make 2 0 and visits = Array.make 3 0 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra.run: negative net distance") (fun () ->
      ignore (Dijkstra.Flat.run flat ~dist:[| 1.0; -1.0 |] ~hits ~visits ~src:0));
  Alcotest.(check (array int)) "partial tree: net 0 counted" [| 1; 0 |] hits;
  Alcotest.(check (array int)) "partial tree: vertex 1 visited" [| 0; 1; 0 |] visits;
  let hits = Array.make 2 0 and visits = Array.make 3 0 in
  let count = Dijkstra.Flat.run flat ~dist:[| 1.0; 1.0 |] ~hits ~visits ~src:1 in
  Alcotest.(check (array int)) "fresh tree after the failed run" [| 1 |]
    (Array.sub (Dijkstra.Flat.tree_nets flat) 0 count);
  Alcotest.(check int) "settled" 2 (Dijkstra.Flat.settled flat);
  Alcotest.(check (array int)) "hits" [| 0; 1 |] hits;
  Alcotest.(check (array int)) "visits" [| 0; 0; 1 |] visits

let test_flat_short_accounting () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let flat = Dijkstra.Flat.create (Csr.of_netgraph g) in
  let dist = [| 1.0 |] in
  Alcotest.check_raises "hits"
    (Invalid_argument "Dijkstra.Flat.run: hit array shorter than the net count")
    (fun () -> ignore (Dijkstra.Flat.run flat ~dist ~hits:[||] ~visits:[| 0; 0 |] ~src:0));
  Alcotest.check_raises "visits"
    (Invalid_argument "Dijkstra.Flat.run: visit array shorter than the vertex count")
    (fun () -> ignore (Dijkstra.Flat.run flat ~dist ~hits:[| 0 |] ~visits:[| 0 |] ~src:0))

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
    Alcotest.test_case "flat kernel rejects short accounting arrays" `Quick
      test_flat_short_accounting;
    Alcotest.test_case "flat kernel = run_into on a star (1-3 entry heaps)" `Quick
      test_flat_star;
    QCheck_alcotest.to_alcotest prop_flat_matches_run_into;
  ]
