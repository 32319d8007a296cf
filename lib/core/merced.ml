module Netgraph = Ppet_digraph.Netgraph
module Csr = Ppet_digraph.Csr
module Prng = Ppet_digraph.Prng
module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Segment = Ppet_netlist.Segment
module To_graph = Ppet_netlist.To_graph
module Scc_budget = Ppet_retiming.Scc_budget
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module To_circuit = Ppet_retiming.To_circuit
module Obs = Ppet_obs.Obs

type result = {
  circuit : Circuit.t;
  params : Params.t;
  graph : Netgraph.t;
  budget : Scc_budget.t;
  flow : Flow.result;
  clustering : Cluster.t;
  assignment : Assign.t;
  breakdown : Area_accounting.breakdown;
  sigma_dff : float;
  testing_time : float;
  cpu_seconds : float;
}

let log_src = Logs.Src.create "ppet.merced" ~doc:"Merced BIST compiler"

module Log = (val Logs.src_log log_src)

let partition_iotas_of (assignment : Assign.t) =
  List.map
    (fun (p : Assign.partition) -> p.Assign.input_count)
    assignment.Assign.partitions

let run ?(params = Params.default) ?locked circuit =
  (match Params.validate params with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Merced.run: " ^ msg));
  Obs.span "merced.run" @@ fun () ->
  let t0 = Sys.time () in
  (* STEP 1: graph representation *)
  let graph = Obs.span "merced.to_graph" (fun () -> To_graph.partition_view circuit) in
  Log.debug (fun m ->
      m "STEP 1 %s: %d vertices, %d nets" circuit.Circuit.title
        (Netgraph.n_nodes graph) (Netgraph.n_nets graph));
  (* Flat snapshot of the frozen graph: the saturation, clustering and
     assignment stages all relax over its rows. *)
  let csr = Obs.span "merced.csr" (fun () -> Csr.of_netgraph graph) in
  (* STEP 2: strongly connected components *)
  let budget = Obs.span "merced.scc_budget" (fun () -> Scc_budget.create circuit graph) in
  Log.debug (fun m ->
      m "STEP 2: %d components, %d flip-flops on loops"
        (Scc_budget.n_components budget)
        (Scc_budget.dffs_on_scc budget));
  (* STEP 3: Assign_CBIT over the saturated network — or, when the
     params select a baseline engine, its partition directly, on the
     same graph and PRNG stream. *)
  let rng = Prng.create params.Params.seed in
  let flow, clustering, assignment =
    match params.Params.partitioner with
    | Params.Flow ->
      let flow = Flow.saturate csr params rng in
      Log.debug (fun m ->
          m "STEP 3a: %d shortest-path trees injected" flow.Flow.iterations);
      let clustering =
        Cluster.make_group ?locked ~csr circuit graph budget flow params
      in
      Log.debug (fun m ->
          m "STEP 3b: %d clusters" (List.length clustering.Cluster.clusters));
      let assignment =
        Obs.span "merced.assign" (fun () ->
            Assign.run ~csr circuit graph clustering params rng)
      in
      (flow, clustering, assignment)
    | (Params.Fm | Params.Annealing | Params.Random) as p ->
      if locked <> None then
        invalid_arg
          (Printf.sprintf
             "Merced.run: --lock requires the flow partitioner, not %s"
             (Params.partitioner_name p));
      let assignment =
        Obs.span "merced.assign" (fun () ->
            match p with
            | Params.Fm ->
              (Baseline_fm.run circuit graph params rng).Baseline_fm.result
            | Params.Annealing ->
              (Baseline_annealing.run circuit graph params rng)
                .Baseline_annealing.result
            | Params.Random | Params.Flow ->
              Baseline_random.run circuit graph params rng)
      in
      Log.debug (fun m ->
          m "STEP 3 (%s baseline): %d partitions"
            (Params.partitioner_name p)
            (List.length assignment.Assign.partitions));
      (* neutral flow/clustering records: the baselines never saturate
         the network, and every downstream consumer (area accounting,
         phasing, the retiming solver) reads only the assignment *)
      let flow =
        {
          Flow.distance = Array.make (Netgraph.n_nets graph) 0.0;
          flow = Array.make (Netgraph.n_nets graph) 0.0;
          visits = Array.make (Netgraph.n_nodes graph) 0;
          iterations = 0;
        }
      in
      let clustering =
        {
          Cluster.clusters = [];
          cluster_of = Array.make (Netgraph.n_nodes graph) 0;
          removed = Array.make (Netgraph.n_nets graph) false;
          forced_kept = Array.make (Netgraph.n_nets graph) false;
          cuts_used = Array.make (Scc_budget.n_components budget) 0;
          boundaries_used = 0;
        }
      in
      (flow, clustering, assignment)
  in
  Obs.add Obs.Metric.Partitions_formed
    (List.length assignment.Assign.partitions);
  Log.debug (fun m ->
      m "STEP 3c: %d partitions, %d cut nets"
        (List.length assignment.Assign.partitions)
        (List.length assignment.Assign.cut_nets));
  (* STEP 4: report *)
  let iotas = partition_iotas_of assignment in
  let breakdown =
    Obs.span "merced.area" (fun () ->
        Area_accounting.compute circuit budget
          ~cut_nets:assignment.Assign.cut_nets ~partition_iotas:iotas)
  in
  let sigma_dff = Cost.sigma (List.map (fun i -> min i 32) iotas) in
  let testing_time = Cost.testing_time_cycles (List.map (fun i -> min i 32) iotas) in
  Obs.gauge "merced.cuts_total" (float_of_int breakdown.Area_accounting.cuts_total);
  Obs.gauge "merced.sigma_dff" sigma_dff;
  {
    circuit;
    params;
    graph;
    budget;
    flow;
    clustering;
    assignment;
    breakdown;
    sigma_dff;
    testing_time;
    cpu_seconds = Sys.time () -. t0;
  }

let partition_iotas r = partition_iotas_of r.assignment

type certificate = {
  cert_graph : Rgraph.t;
  cert_rho : int array;
  cert_required : int list;
  cert_dropped : int;
}

(* Solve for a legal retiming placing a register on every comb-driven cut
   net, iteratively dropping the requirements of over-constrained loops
   (those cut nets get multiplexed cells instead). Returns the graph, the
   labels, and the number of dropped requirements. *)
let solve_requirements r =
  Obs.span "merced.retime_requirements" @@ fun () ->
  let rg = Rgraph.of_circuit r.circuit in
  let vertex_by_name = Hashtbl.create (Rgraph.n_vertices rg) in
  for v = 0 to Rgraph.n_vertices rg - 1 do
    Hashtbl.replace vertex_by_name (Rgraph.vertex_name rg v) v
  done;
  (* cut nets whose driver is a combinational gate want >= 1 register on
     every collapsed edge leaving that driver; a plain bool array per
     vertex, because [require] runs once per constraint arc per solve
     attempt and the drop loop solves hundreds of times at 100k cells *)
  let required = Array.make (Rgraph.n_vertices rg) false in
  List.iter
    (fun e ->
      let driver = Netgraph.net_src r.graph e in
      let nd = Circuit.node r.circuit driver in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        (match Hashtbl.find_opt vertex_by_name nd.Circuit.name with
         | Some v -> required.(v) <- true
         | None -> ()))
    r.assignment.Assign.cut_nets;
  let require e =
    if required.(rg.Rgraph.edges.(e).Rgraph.tail) then 1 else 0
  in
  (* One flat solver reused across the whole drop loop: the constraint
     arcs and scratch are built once. An infeasible attempt reports
     every cycle of the solver's predecessor forest at once; each is a
     genuine negative cycle of the system it was found in. A dropped
     requirement rewrites only the arcs of its own edges, and the next
     attempt resumes from the aborted one's labels and queue, so a round
     costs only the relaxations past the previous abort instead of a
     full cold solve or a scan of every arc. Resumed fixpoints are
     feasible but not canonical, so once a resumed attempt converges we
     re-solve cold for the canonical rho (the one the reference solver
     [Retime.solve] also produces). *)
  let solver = Retime.Solver.create rg in
  let resumed = ref false in
  let settle = function
    | Ok _ when !resumed ->
      resumed := false;
      Retime.Solver.run_cycles solver ~require
    | outcome -> outcome
  in
  let resume () =
    resumed := true;
    settle (Retime.Solver.resume solver)
  in
  let drop v =
    required.(v) <- false;
    Retime.Solver.release solver v
  in
  let dropped = ref 0 in
  let rec attempt = function
    | Ok rho -> Some rho
    | Error cycles ->
      let progressed = ref false in
      List.iter
        (List.iter (fun v ->
             if required.(v) then begin
               drop v;
               incr dropped;
               progressed := true
             end))
        cycles;
      if !progressed then attempt (resume ())
      else begin
        (* no cycle carries a requirement we can drop; give up on all *)
        Array.iteri (fun v r -> if r then drop v) required;
        match resume () with
        | Ok rho -> Some rho
        | Error _ -> None
      end
  in
  let rho = attempt (Retime.Solver.run_cycles solver ~require) in
  let required =
    let acc = ref [] in
    for v = Array.length required - 1 downto 0 do
      if required.(v) then acc := v :: !acc
    done;
    !acc
  in
  Obs.add Obs.Metric.Retime_required_kept (List.length required);
  Obs.add Obs.Metric.Retime_required_dropped !dropped;
  (rg, rho, required, !dropped)

let retiming_certificate r =
  let rg, rho, required, dropped = solve_requirements r in
  match rho with
  | None -> None
  | Some cert_rho ->
    Some { cert_graph = rg; cert_rho; cert_required = required;
           cert_dropped = dropped }

let retiming_feasibility r =
  let _, _, _, dropped = solve_requirements r in
  if dropped = 0 then `Feasible else `Needs_mux dropped

let apply_certificate r cert =
  Obs.span "merced.retime_emit" @@ fun () ->
  let rg' = Retime.apply cert.cert_graph cert.cert_rho in
  To_circuit.circuit_of ~title:(r.circuit.Circuit.title ^ "-retimed") rg'

let retimed_netlist r =
  match retiming_certificate r with
  | None -> None
  | Some cert -> Some (apply_certificate r cert, cert.cert_dropped)

let segments r =
  List.filter_map
    (fun (p : Assign.partition) ->
      let combs =
        Array.of_list
          (List.filter
             (fun v ->
               match (Circuit.node r.circuit v).Circuit.kind with
               | Gate.Input | Gate.Dff -> false
               | Gate.Buff | Gate.Not | Gate.And | Gate.Nand | Gate.Or
               | Gate.Nor | Gate.Xor | Gate.Xnor -> true)
             (Array.to_list p.Assign.vertices))
      in
      if Array.length combs = 0 then None
      else Some (Segment.of_members r.circuit combs))
    r.assignment.Assign.partitions
