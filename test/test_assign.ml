module Assign = Ppet_core.Assign
module Cluster = Ppet_core.Cluster
module Flow = Ppet_core.Flow
module Params = Ppet_core.Params
module Netgraph = Ppet_digraph.Netgraph
module Prng = Ppet_digraph.Prng
module To_graph = Ppet_netlist.To_graph
module Scc_budget = Ppet_retiming.Scc_budget
module Generator = Ppet_netlist.Generator
module S27 = Ppet_netlist.S27
module Csr = Ppet_digraph.Csr
module Benchmarks = Ppet_netlist.Benchmarks

let run_pipeline ?(l_k = 3) c =
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  let params = { Params.default with Params.l_k } in
  let rng = Prng.create 2L in
  let csr = Csr.of_netgraph g in
  let flow = Flow.saturate csr params rng in
  let clustering = Cluster.make_group ~csr c g sb flow params in
  let a = Assign.run ~csr c g clustering params in
  (g, params, clustering, a)

let test_partitions_cover () =
  let c = S27.circuit () in
  let g, _, _, a = run_pipeline c in
  let seen = Array.make (Netgraph.n_nodes g) 0 in
  List.iter
    (fun p -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) p.Assign.vertices)
    a.Assign.partitions;
  Alcotest.(check bool) "exactly once" true (Array.for_all (fun k -> k = 1) seen)

let test_constraint_respected () =
  let c = S27.circuit () in
  let _, params, _, a = run_pipeline c in
  List.iter
    (fun p ->
      if not p.Assign.oversize then
        Alcotest.(check bool) "iota <= l_k" true
          (p.Assign.input_count <= params.Params.l_k))
    a.Assign.partitions

let test_merging_reduces_count () =
  let c = S27.circuit () in
  let _, _, clustering, a = run_pipeline c in
  Alcotest.(check bool) "merges happened or nothing to merge" true
    (List.length a.Assign.partitions <= List.length clustering.Cluster.clusters)

let test_merged_from_accounting () =
  let c = S27.circuit () in
  let _, _, clustering, a = run_pipeline c in
  let total =
    List.fold_left (fun acc p -> acc + p.Assign.merged_from) 0 a.Assign.partitions
  in
  Alcotest.(check int) "clusters conserved" (List.length clustering.Cluster.clusters) total

let test_cut_nets_consistent () =
  let c = S27.circuit () in
  let g, _, _, a = run_pipeline c in
  List.iter
    (fun e ->
      let src = Netgraph.net_src g e in
      Alcotest.(check bool) "crosses" true
        (Array.exists
           (fun v -> a.Assign.partition_of.(v) <> a.Assign.partition_of.(src))
           (Netgraph.net_sinks g e)))
    a.Assign.cut_nets

let test_merging_never_hurts_cuts () =
  (* merging can only remove cut nets relative to the raw clustering *)
  let c = Generator.small_random ~seed:77L ~n_pi:6 ~n_dff:5 ~n_gates:60 in
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  let params = { Params.default with Params.l_k = 6 } in
  let rng = Prng.create 4L in
  let csr = Csr.of_netgraph g in
  let flow = Flow.saturate csr params rng in
  let clustering = Cluster.make_group ~csr c g sb flow params in
  let before = List.length (Cluster.cut_nets clustering g) in
  let a = Assign.run ~csr c g clustering params in
  Alcotest.(check bool) "merge helps" true (List.length a.Assign.cut_nets <= before)

let test_paper_example_shape () =
  (* the paper's worked example: s27 with l_k = 3 gives 4 partitions
     (Fig. 7); our graph includes the 4 PIs as vertices, so allow a small
     neighbourhood around 4 *)
  let c = S27.circuit () in
  let _, _, _, a = run_pipeline ~l_k:3 c in
  let n = List.length a.Assign.partitions in
  Alcotest.(check bool) "about four partitions" true (n >= 3 && n <= 7)

let prop_valid_partitions =
  QCheck.Test.make ~name:"assign output is a valid partitioning" ~count:15
    QCheck.(pair (int_bound 10_000) (int_range 4 12))
    (fun (seed, l_k) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 71)) ~n_pi:5
          ~n_dff:6 ~n_gates:45
      in
      let g = To_graph.partition_view c in
      let sb = Scc_budget.create c g in
      let params = { Params.default with Params.l_k } in
      let rng = Prng.create (Int64.of_int (seed * 3)) in
      let csr = Csr.of_netgraph g in
      let flow = Flow.saturate csr params rng in
      let clustering = Cluster.make_group ~csr c g sb flow params in
      let a = Assign.run ~csr c g clustering params in
      let seen = Array.make (Netgraph.n_nodes g) 0 in
      List.iter
        (fun p -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) p.Assign.vertices)
        a.Assign.partitions;
      Array.for_all (fun k -> k = 1) seen
      && List.for_all
           (fun p -> p.Assign.oversize || p.Assign.input_count <= l_k)
           a.Assign.partitions)

let same (a : Assign.t) (b : Assign.t) =
  a.Assign.partition_of = b.Assign.partition_of
  && a.Assign.cut_nets = b.Assign.cut_nets
  && a.Assign.merges = b.Assign.merges

(* The hashed formulation, which scores every live cluster at every
   step, is Assign.run's oracle: same partitions, same cut nets, same
   merge count. Odd seeds lock a fifth of the vertices into a cluster
   that is never merged. *)
let prop_flat_matches_hashed =
  QCheck.Test.make ~name:"flat assign = hashed assign" ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 4 12))
    (fun (seed, l_k) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 13)) ~n_pi:6
          ~n_dff:(3 + (seed mod 6)) ~n_gates:(30 + (seed mod 40))
      in
      let g = To_graph.partition_view c in
      let params = { Params.default with Params.l_k } in
      let rng = Prng.create (Int64.of_int seed) in
      let csr = Csr.of_netgraph g in
      let flow = Flow.saturate csr params rng in
      let locked =
        if seed mod 2 = 0 then None else Some (fun v -> v mod 5 = seed mod 5)
      in
      let clustering =
        Cluster.make_group ?locked ~csr c g (Scc_budget.create c g) flow params
      in
      same (Hashed_oracle.assign c g clustering params)
        (Assign.run ~csr c g clustering params))

(* Saturation and clustering as in Merced.run at the paper's settings
   (l_k 16, min_visit 20): s5378 forms ~2 000 clusters and s9234.1
   ~3 900, the sizes at which an assignment that scores a sample of
   the live clusters stops being exact. *)
let flat_pipeline =
  let memo = Hashtbl.create 2 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
      let c = Benchmarks.circuit name in
      let g = To_graph.partition_view c in
      let csr = Csr.of_netgraph g in
      let p = Params.paper in
      let flow = Flow.saturate csr p (Prng.create p.Params.seed) in
      let clustering =
        Cluster.make_group ~csr c g (Scc_budget.create c g) flow p
      in
      let r = (c, g, csr, p, clustering) in
      Hashtbl.replace memo name r;
      r

let assign_flat name =
  let c, g, csr, p, clustering = flat_pipeline name in
  Assign.run ~csr c g clustering p

let test_oracle_large () =
  List.iter
    (fun name ->
      let c, g, _, p, clustering = flat_pipeline name in
      Alcotest.(check bool) (name ^ ": flat = hashed") true
        (same (Hashed_oracle.assign c g clustering p) (assign_flat name)))
    [ "s5378"; "s9234.1" ]

let digest_ints a =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a))))

let test_pins () =
  List.iter
    (fun (name, partitions, cut_nets, merges, digest) ->
      let a = assign_flat name in
      let what field = Printf.sprintf "%s: %s" name field in
      Alcotest.(check int) (what "partitions") partitions
        (List.length a.Assign.partitions);
      Alcotest.(check int) (what "cut nets") cut_nets (List.length a.Assign.cut_nets);
      Alcotest.(check int) (what "merges") merges a.Assign.merges;
      Alcotest.(check string) (what "partition_of digest") digest
        (digest_ints a.Assign.partition_of))
    [
      ("s5378", 52, 650, 1980, "0bcaa15ffb45d56d6532d01ef63d99b7");
      ("s9234.1", 116, 1466, 3823, "ea7edf2a1c49b4dc2d7056f2775ac87d");
    ]

(* Allocation guard: scoring allocates nothing per neighbour, so what
   is left per merge is the merged entering-net array and the emitted
   partitions. *)
let test_flat_allocation () =
  ignore (flat_pipeline "s5378");
  let before = Gc.minor_words () in
  let a = assign_flat "s5378" in
  let words = Gc.minor_words () -. before in
  let per_merge = words /. float_of_int a.Assign.merges in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per merge (bound 256)" per_merge)
    true (per_merge < 256.)

let suite =
  [
    Alcotest.test_case "partitions cover V once" `Quick test_partitions_cover;
    Alcotest.test_case "input constraint respected" `Quick test_constraint_respected;
    Alcotest.test_case "merging reduces cluster count" `Quick test_merging_reduces_count;
    Alcotest.test_case "merged_from conserves clusters" `Quick test_merged_from_accounting;
    Alcotest.test_case "cut nets cross partitions" `Quick test_cut_nets_consistent;
    Alcotest.test_case "merging never adds cuts" `Quick test_merging_never_hurts_cuts;
    Alcotest.test_case "paper worked example shape" `Quick test_paper_example_shape;
    QCheck_alcotest.to_alcotest prop_valid_partitions;
    QCheck_alcotest.to_alcotest prop_flat_matches_hashed;
    Alcotest.test_case "hashed oracle on s5378, s9234.1" `Quick
      test_oracle_large;
    Alcotest.test_case "assignment pinned (s5378, s9234.1)" `Quick test_pins;
    Alcotest.test_case "flat assign allocation (s5378)" `Quick
      test_flat_allocation;
  ]
