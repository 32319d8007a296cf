module Cluster = Ppet_core.Cluster
module Flow = Ppet_core.Flow
module Params = Ppet_core.Params
module Netgraph = Ppet_digraph.Netgraph
module Csr = Ppet_digraph.Csr
module Prng = Ppet_digraph.Prng
module Circuit = Ppet_netlist.Circuit
module To_graph = Ppet_netlist.To_graph
module Scc_budget = Ppet_retiming.Scc_budget
module Generator = Ppet_netlist.Generator
module S27 = Ppet_netlist.S27

let saturate g params rng = Flow.saturate (Csr.of_netgraph g) params rng

let make_group ?locked c g sb flow params =
  Cluster.make_group ?locked ~csr:(Csr.of_netgraph g) c g sb flow params

let setup ?(l_k = 3) ?(beta = 50) c =
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  let params = { Params.default with Params.l_k; beta } in
  let flow = saturate g params (Prng.create 2L) in
  (g, sb, params, flow)

let test_s27_clusters_respect_lk () =
  let c = S27.circuit () in
  let g, sb, params, flow = setup c in
  let t = make_group c g sb flow params in
  List.iter
    (fun cl ->
      if not cl.Cluster.oversize then
        Alcotest.(check bool) "iota <= l_k" true
          (cl.Cluster.input_count <= params.Params.l_k))
    t.Cluster.clusters

let test_clusters_partition_vertices () =
  let c = S27.circuit () in
  let g, sb, params, flow = setup c in
  let t = make_group c g sb flow params in
  let seen = Array.make (Netgraph.n_nodes g) 0 in
  List.iter
    (fun cl -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) cl.Cluster.vertices)
    t.Cluster.clusters;
  Alcotest.(check bool) "each vertex once" true (Array.for_all (fun k -> k = 1) seen);
  Array.iteri
    (fun v cl -> Alcotest.(check bool) (Printf.sprintf "cluster_of %d" v) true (cl >= 0))
    t.Cluster.cluster_of

let test_sorted_descending () =
  let c = S27.circuit () in
  let g, sb, params, flow = setup c in
  let t = make_group c g sb flow params in
  let rec desc = function
    | a :: (b :: _ as tl) ->
      a.Cluster.input_count >= b.Cluster.input_count && desc tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (desc t.Cluster.clusters)

let test_input_count_of () =
  let c = S27.circuit () in
  let g = To_graph.partition_view c in
  (* single vertex G8 = AND(G14, G6): 2 entering nets, no PI *)
  let vs = [| Circuit.find c "G8" |] in
  let inside v = v = Circuit.find c "G8" in
  Alcotest.(check int) "iota" 2 (Cluster.input_count_of c g ~inside vs);
  (* PI alone counts itself *)
  let pi = Circuit.find c "G0" in
  Alcotest.(check int) "pi iota" 1
    (Cluster.input_count_of c g ~inside:(fun v -> v = pi) [| pi |])

let test_beta_one_limits_scc_cuts () =
  (* with beta = 1, at most f(scc) nets of each loop may be removed *)
  let c = Generator.small_random ~seed:5L ~n_pi:4 ~n_dff:6 ~n_gates:40 in
  let g, sb, _, _ = setup c in
  let params = { Params.default with Params.l_k = 4; Params.beta = 1 } in
  let flow = saturate g params (Prng.create 2L) in
  let t = make_group c g sb flow params in
  Array.iteri
    (fun comp used ->
      if Scc_budget.is_loop sb comp then
        Alcotest.(check bool)
          (Printf.sprintf "scc %d within budget" comp)
          true
          (used <= params.Params.beta * Scc_budget.registers sb comp))
    t.Cluster.cuts_used

let test_forced_nets_uncut () =
  let c = Generator.small_random ~seed:5L ~n_pi:4 ~n_dff:6 ~n_gates:40 in
  let g, sb, _, _ = setup c in
  let params = { Params.default with Params.l_k = 4; Params.beta = 1 } in
  let flow = saturate g params (Prng.create 2L) in
  let t = make_group c g sb flow params in
  Array.iteri
    (fun e forced ->
      if forced then
        Alcotest.(check bool) "forced nets not removed" false t.Cluster.removed.(e))
    t.Cluster.forced_kept

let test_cut_nets_cross_clusters () =
  let c = S27.circuit () in
  let g, sb, params, flow = setup c in
  let t = make_group c g sb flow params in
  List.iter
    (fun e ->
      let src = Netgraph.net_src g e in
      let crosses =
        Array.exists
          (fun v -> t.Cluster.cluster_of.(v) <> t.Cluster.cluster_of.(src))
          (Netgraph.net_sinks g e)
      in
      Alcotest.(check bool) "cut crosses" true crosses)
    (Cluster.cut_nets t g)

let test_lk_large_single_cluster () =
  (* l_k above the whole circuit's iota: nothing needs cutting. Make_Group
     may still pre-split at the top congestion boundary (the paper's
     STEP 4 runs unconditionally); Assign_CBIT's merging heals it, so the
     end-to-end pipeline reports no cuts. *)
  let c = S27.circuit () in
  let r = Ppet_core.Merced.run ~params:(Params.with_lk 16) c in
  Alcotest.(check int) "no cuts after merging" 0
    (List.length r.Ppet_core.Merced.assignment.Ppet_core.Assign.cut_nets)

let prop_constraint_holds =
  QCheck.Test.make ~name:"clusters satisfy the input constraint" ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 4 10))
    (fun (seed, l_k) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 31)) ~n_pi:6
          ~n_dff:5 ~n_gates:50
      in
      let g = To_graph.partition_view c in
      let sb = Scc_budget.create c g in
      let params = { Params.default with Params.l_k } in
      let flow = saturate g params (Prng.create (Int64.of_int seed)) in
      let t = make_group c g sb flow params in
      List.for_all
        (fun cl ->
          cl.Cluster.oversize || cl.Cluster.input_count <= l_k)
        t.Cluster.clusters)

(* Cluster.make_group against the queue formulation it replays, on
   every field of the result: the clusters with their iota, oversize
   and locked flags, cluster_of, the removed and forced nets, the
   per-SCC cut counts and boundaries_used. beta 1 makes the per-SCC
   cut budget run out, so nets get forced kept. *)
let prop_matches_queue_oracle =
  QCheck.Test.make ~name:"make_group = queue oracle on every field" ~count:60
    QCheck.(triple (int_bound 10_000) (int_range 3 10) bool)
    (fun (seed, l_k, tight) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 7))
          ~n_pi:(3 + (seed mod 4)) ~n_dff:(2 + (seed mod 7))
          ~n_gates:(20 + (seed mod 60))
      in
      let g = To_graph.partition_view c in
      let sb = Scc_budget.create c g in
      let params =
        { Params.default with Params.l_k; beta = (if tight then 1 else 50) }
      in
      let flow = saturate g params (Prng.create (Int64.of_int seed)) in
      let check what locked =
        let flat = make_group ?locked c g sb flow params in
        let oracle = Hashed_oracle.make_group ?locked c g sb flow params in
        let field name eq =
          if not eq then
            QCheck.Test.fail_reportf "%s: %s differs from the oracle" what name
        in
        field "clusters" (flat.Cluster.clusters = oracle.Cluster.clusters);
        field "cluster_of" (flat.Cluster.cluster_of = oracle.Cluster.cluster_of);
        field "removed" (flat.Cluster.removed = oracle.Cluster.removed);
        field "forced_kept"
          (flat.Cluster.forced_kept = oracle.Cluster.forced_kept);
        field "cuts_used" (flat.Cluster.cuts_used = oracle.Cluster.cuts_used);
        field "boundaries_used"
          (flat.Cluster.boundaries_used = oracle.Cluster.boundaries_used)
      in
      check "unlocked" None;
      check "locked" (Some (fun v -> v mod 5 = seed mod 5));
      true)

let suite =
  [
    Alcotest.test_case "clusters respect l_k" `Quick test_s27_clusters_respect_lk;
    Alcotest.test_case "clusters partition V" `Quick test_clusters_partition_vertices;
    Alcotest.test_case "sorted by iota descending" `Quick test_sorted_descending;
    Alcotest.test_case "input_count_of" `Quick test_input_count_of;
    Alcotest.test_case "beta=1 limits SCC cuts (Eq. 6)" `Quick test_beta_one_limits_scc_cuts;
    Alcotest.test_case "forced nets stay" `Quick test_forced_nets_uncut;
    Alcotest.test_case "cut nets cross clusters" `Quick test_cut_nets_cross_clusters;
    Alcotest.test_case "large l_k needs no cuts" `Quick test_lk_large_single_cluster;
    QCheck_alcotest.to_alcotest prop_constraint_holds;
    QCheck_alcotest.to_alcotest prop_matches_queue_oracle;
  ]

(* appended: the lock option of Table 5 *)
let test_locked_cluster_preserved () =
  let c = S27.circuit () in
  let ids = [ Circuit.find c "G8"; Circuit.find c "G15"; Circuit.find c "G16" ] in
  let locked v = List.mem v ids in
  let g, sb, params, flow = setup c in
  let t = make_group ~locked c g sb flow params in
  let locked_clusters =
    List.filter (fun cl -> cl.Cluster.locked) t.Cluster.clusters
  in
  Alcotest.(check int) "one locked cluster" 1 (List.length locked_clusters);
  (match locked_clusters with
   | [ cl ] ->
     let vs = Array.to_list cl.Cluster.vertices in
     Alcotest.(check (list int)) "exactly the locked ids"
       (List.sort compare ids) (List.sort compare vs)
   | _ -> Alcotest.fail "unexpected");
  (* the free clusters never contain locked vertices *)
  List.iter
    (fun cl ->
      if not cl.Cluster.locked then
        Array.iter
          (fun v -> Alcotest.(check bool) "free of locks" false (locked v))
          cl.Cluster.vertices)
    t.Cluster.clusters

let test_locked_survives_assign () =
  let c = S27.circuit () in
  let ids = [ Circuit.find c "G8"; Circuit.find c "G15" ] in
  let r =
    Ppet_core.Merced.run ~params:(Params.with_lk 3)
      ~locked:(fun v -> List.mem v ids)
      c
  in
  let locked_parts =
    List.filter
      (fun (p : Ppet_core.Assign.partition) -> p.Ppet_core.Assign.locked)
      r.Ppet_core.Merced.assignment.Ppet_core.Assign.partitions
  in
  Alcotest.(check int) "locked partition kept" 1 (List.length locked_parts);
  (match locked_parts with
   | [ p ] ->
     Alcotest.(check int) "unmerged" 2 (Array.length p.Ppet_core.Assign.vertices)
   | _ -> Alcotest.fail "unexpected")

let suite =
  suite
  @ [
      Alcotest.test_case "locked cluster preserved" `Quick test_locked_cluster_preserved;
      Alcotest.test_case "locked survives Assign_CBIT" `Quick test_locked_survives_assign;
    ]
