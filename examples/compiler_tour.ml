(* A tour through every stage of the Merced compiler on a mid-size
   synthetic benchmark — the data a paper reader wants to see at each
   STEP of Table 2, plus the retiming machinery of Sec. 2 applied for
   real: we solve for a legal retiming, rebuild the circuit, and
   co-simulate it against the original.

   Run with: dune exec examples/compiler_tour.exe *)

module Netgraph = Ppet_digraph.Netgraph
module Csr = Ppet_digraph.Csr
module Prng = Ppet_digraph.Prng
module Circuit = Ppet_netlist.Circuit
module To_graph = Ppet_netlist.To_graph
module Benchmarks = Ppet_netlist.Benchmarks
module Scc_budget = Ppet_retiming.Scc_budget
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module Logic3 = Ppet_retiming.Logic3
module Params = Ppet_core.Params
module Flow = Ppet_core.Flow
module Cluster = Ppet_core.Cluster
module Assign = Ppet_core.Assign

let () =
  let circuit = Benchmarks.circuit "s641" in
  let params = Params.with_lk 16 in

  (* STEP 1: graph representation (multi-pin model, Fig. 2) *)
  let graph = To_graph.partition_view circuit in
  Format.printf "STEP 1: %d vertices, %d nets@." (Netgraph.n_nodes graph)
    (Netgraph.n_nets graph);

  (* STEP 2: strongly connected components *)
  let budget = Scc_budget.create circuit graph in
  let loops =
    List.length
      (List.filter
         (fun comp -> Scc_budget.is_loop budget comp)
         (List.init (Scc_budget.n_components budget) (fun i -> i)))
  in
  Format.printf "STEP 2: %d SCCs, %d of them loops, %d flip-flops on loops@."
    (Scc_budget.n_components budget) loops
    (Scc_budget.dffs_on_scc budget);

  (* STEP 3a: Saturate_Network (Table 3), on a flat snapshot of the
     frozen graph that the next two steps share *)
  let csr = Csr.of_netgraph graph in
  let rng = Prng.create params.Params.seed in
  let flow = Flow.saturate csr params rng in
  let boundaries = Flow.boundaries flow in
  Format.printf "STEP 3a: %d shortest-path trees, %d distinct congestion levels@."
    flow.Flow.iterations (List.length boundaries);

  (* STEP 3b: Make_Group (Tables 4-7) *)
  let clustering = Cluster.make_group ~csr circuit graph budget flow params in
  Format.printf "STEP 3b: %d clusters (used %d boundaries)@."
    (List.length clustering.Cluster.clusters)
    clustering.Cluster.boundaries_used;

  (* STEP 3c: Assign_CBIT (Table 8) *)
  let assignment = Assign.run ~csr circuit graph clustering params in
  Format.printf "STEP 3c: %d partitions after %d merges, %d cut nets@."
    (List.length assignment.Assign.partitions)
    assignment.Assign.merges
    (List.length assignment.Assign.cut_nets);

  (* STEP 4: realise the register placement by legal retiming (Sec. 2.2) *)
  let rg = Rgraph.of_circuit circuit in
  let wanted = Hashtbl.create 64 in
  let vertex_by_name = Hashtbl.create 256 in
  for v = 0 to Rgraph.n_vertices rg - 1 do
    Hashtbl.replace vertex_by_name (Rgraph.vertex_name rg v) v
  done;
  List.iter
    (fun e ->
      let driver = Netgraph.net_src graph e in
      let nd = Circuit.node circuit driver in
      match nd.Circuit.kind with
      | Ppet_netlist.Gate.Input | Ppet_netlist.Gate.Dff -> ()
      | _ ->
        (match Hashtbl.find_opt vertex_by_name nd.Circuit.name with
         | Some v -> Hashtbl.replace wanted v ()
         | None -> ()))
    assignment.Assign.cut_nets;
  let require e =
    if Hashtbl.mem wanted rg.Rgraph.edges.(e).Rgraph.tail then 1 else 0
  in
  (match Retime.solve rg ~require with
   | Retime.Feasible rho ->
     let moved = Array.fold_left (fun acc r -> acc + abs r) 0 rho in
     Format.printf "STEP 4: legal retiming found (total |rho| = %d)@." moved;
     let rg' = Retime.apply rg rho in
     Format.printf "        registers: %d per-pin before, %d after@."
       (Rgraph.n_registers rg) (Rgraph.n_registers rg');
     (* co-simulate 5 cycles on random inputs: outputs must agree *)
     let srng = Prng.create 77L in
     let stim = Hashtbl.create 64 in
     let inputs ~cycle name =
       match Hashtbl.find_opt stim (cycle, name) with
       | Some v -> v
       | None ->
         let v = if Prng.bool srng then Logic3.One else Logic3.Zero in
         Hashtbl.replace stim (cycle, name) v;
         v
     in
     let a = Rgraph.simulate rg ~inputs ~cycles:5 in
     let b = Rgraph.simulate rg' ~inputs ~cycles:5 in
     let mismatches = ref 0 and compared = ref 0 in
     Array.iteri
       (fun t outs ->
         List.iter
           (fun (name, v0) ->
             incr compared;
             if not (Logic3.compatible v0 (List.assoc name b.(t))) then
               incr mismatches)
           outs)
       a;
     Format.printf
       "        co-simulation: %d output observations, %d mismatches@."
       !compared !mismatches
   | Retime.Infeasible cycle ->
     Format.printf
       "STEP 4: requirements hit an over-constrained loop of %d vertices — \
        those cuts get multiplexed A_CELLs@."
       (List.length cycle))
