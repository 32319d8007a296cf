module Netgraph = Ppet_digraph.Netgraph
module Components = Ppet_digraph.Components
module Csr = Ppet_digraph.Csr
module Union_find = Ppet_digraph.Union_find

let chain () =
  let g = Netgraph.create 4 in
  let e0 = Netgraph.add_net g ~src:0 ~sinks:[ 1 ] in
  let e1 = Netgraph.add_net g ~src:1 ~sinks:[ 2 ] in
  let e2 = Netgraph.add_net g ~src:2 ~sinks:[ 3 ] in
  (g, e0, e1, e2)

(* weak components of the whole graph: restrict_csr over every vertex *)
let weak g ~keep =
  let csr = Csr.of_netgraph g in
  Components.restrict_csr csr (Csr.workspace csr)
    ~vertices:(Array.init (Netgraph.n_nodes g) Fun.id)
    ~keep

let test_weak_all_kept () =
  let g, _, _, _ = chain () in
  Alcotest.(check (array (array int))) "one component" [| [| 0; 1; 2; 3 |] |]
    (weak g ~keep:(fun _ -> true))

let test_weak_cut_middle () =
  let g, _, e1, _ = chain () in
  Alcotest.(check (array (array int))) "0,1 and 2,3" [| [| 0; 1 |]; [| 2; 3 |] |]
    (weak g ~keep:(fun e -> e <> e1))

let test_weak_none_kept () =
  let g, _, _, _ = chain () in
  Alcotest.(check int) "all singletons" 4
    (Array.length (weak g ~keep:(fun _ -> false)))

let test_weak_ignores_direction () =
  let g = Netgraph.create 2 in
  let _ = Netgraph.add_net g ~src:1 ~sinks:[ 0 ] in
  Alcotest.(check (array (array int))) "undirected connection" [| [| 0; 1 |] |]
    (weak g ~keep:(fun _ -> true))

let test_restrict () =
  let g, _, _, _ = chain () in
  let csr = Csr.of_netgraph g in
  let restrict vertices ~keep =
    let flat = Components.restrict_csr csr (Csr.workspace csr) ~vertices ~keep in
    Alcotest.(check (array (array int))) "restrict_csr = hashed oracle"
      (Hashed_oracle.restrict g ~vertices ~keep) flat;
    flat
  in
  let pieces = restrict [| 0; 1; 3 |] ~keep:(fun _ -> true) in
  (* 0-1 connected inside, 3 separate (2 not in the subset) *)
  Alcotest.(check int) "two pieces" 2 (Array.length pieces);
  let sizes = Array.map Array.length pieces in
  Array.sort compare sizes;
  Alcotest.(check (array int)) "sizes" [| 1; 2 |] sizes;
  (* unsorted subset, a removed net, and a net entering from outside *)
  ignore (restrict [| 3; 1; 2; 0 |] ~keep:(fun e -> e <> 1));
  ignore (restrict [| 3; 2 |] ~keep:(fun _ -> true));
  ignore (restrict [| 1; 3 |] ~keep:(fun _ -> true))

let test_cut_nets () =
  let g, e0, e1, e2 = chain () in
  let labels = [| 0; 0; 1; 1 |] in
  Alcotest.(check (list int)) "only middle cut" [ e1 ]
    (Components.cut_nets g labels);
  let labels2 = [| 0; 1; 2; 3 |] in
  Alcotest.(check (list int)) "all cut" [ e0; e1; e2 ]
    (Components.cut_nets g labels2)

let test_cut_nets_multisink () =
  let g = Netgraph.create 3 in
  let e = Netgraph.add_net g ~src:0 ~sinks:[ 1; 2 ] in
  (* net counted once even when it crosses to two different clusters *)
  Alcotest.(check (list int)) "once" [ e ]
    (Components.cut_nets g [| 0; 1; 2 |])

let test_union_find_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check bool) "initially disjoint" false (Union_find.same uf 0 1);
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  Alcotest.(check bool) "transitively joined" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "others untouched" false (Union_find.same uf 0 3);
  let groups = Union_find.groups uf in
  Alcotest.(check int) "three groups" 3 (Array.length groups)

let test_union_find_idempotent () =
  let uf = Union_find.create 3 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Union_find.union uf 1 0;
  Alcotest.(check int) "still two groups" 2 (Array.length (Union_find.groups uf))

let suite =
  [
    Alcotest.test_case "weak: everything kept" `Quick test_weak_all_kept;
    Alcotest.test_case "weak: cut in the middle" `Quick test_weak_cut_middle;
    Alcotest.test_case "weak: nothing kept" `Quick test_weak_none_kept;
    Alcotest.test_case "weak ignores direction" `Quick test_weak_ignores_direction;
    Alcotest.test_case "restrict to subset" `Quick test_restrict;
    Alcotest.test_case "cut nets of a labelling" `Quick test_cut_nets;
    Alcotest.test_case "multi-sink cut counted once" `Quick test_cut_nets_multisink;
    Alcotest.test_case "union-find basics" `Quick test_union_find_basics;
    Alcotest.test_case "union-find idempotent" `Quick test_union_find_idempotent;
  ]
