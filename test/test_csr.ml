(* The CSR snapshot against its oracles: the hashed Netgraph it
   snapshots, the hashed retiming solver the flat one replaces, and the
   hashed partitioning pipeline. *)

module Netgraph = Ppet_digraph.Netgraph
module Csr = Ppet_digraph.Csr
module Generator = Ppet_netlist.Generator
module To_graph = Ppet_netlist.To_graph
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module Merced = Ppet_core.Merced
module Params = Ppet_core.Params
module Assign = Ppet_core.Assign
module Dft_rules = Ppet_lint.Dft_rules
module Diag = Ppet_lint.Diag

let circuit_of_seed seed =
  Generator.small_random ~seed:(Int64.of_int seed) ~n_pi:4 ~n_dff:6
    ~n_gates:(20 + (seed mod 40))

let slice off data i = Array.sub data off.(i) (off.(i + 1) - off.(i))

let check_row msg expected actual =
  if expected <> actual then
    QCheck.Test.fail_reportf "%s: [%s] <> [%s]" msg
      (String.concat ";" (List.map string_of_int (Array.to_list expected)))
      (String.concat ";" (List.map string_of_int (Array.to_list actual)))

(* Every CSR row equals the Netgraph query it mirrors, in order. *)
let prop_adjacency =
  QCheck.Test.make ~name:"CSR rows mirror Netgraph queries" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = To_graph.partition_view (circuit_of_seed seed) in
      let csr = Csr.of_netgraph g in
      if Csr.n_nodes csr <> Netgraph.n_nodes g then
        QCheck.Test.fail_report "vertex counts differ";
      if Csr.n_nets csr <> Netgraph.n_nets g then
        QCheck.Test.fail_report "net counts differ";
      for e = 0 to Netgraph.n_nets g - 1 do
        if csr.Csr.net_src.(e) <> Netgraph.net_src g e then
          QCheck.Test.fail_reportf "net %d source differs" e;
        check_row "sinks" (Netgraph.net_sinks g e)
          (slice csr.Csr.sink_off csr.Csr.sink e)
      done;
      for v = 0 to Netgraph.n_nodes g - 1 do
        check_row "out nets" (Netgraph.out_nets g v)
          (slice csr.Csr.out_off csr.Csr.out_net v);
        check_row "in nets" (Netgraph.in_nets g v)
          (slice csr.Csr.in_off csr.Csr.in_net v);
        check_row "successors" (Netgraph.successors g v)
          (slice csr.Csr.succ_off csr.Csr.succ v);
        check_row "predecessors" (Netgraph.predecessors g v)
          (slice csr.Csr.pred_off csr.Csr.pred v)
      done;
      true)

(* A pseudo-random but deterministic requirement: roughly one edge in
   four asks for a register. *)
let require_of rg salt e =
  let t = rg.Rgraph.edges.(e).Rgraph.tail in
  if (((e * 2654435761) lxor salt) land 3) = 0 && t <> rg.Rgraph.host then 1
  else 0

(* The flat solver agrees with the hashed Bellman-Ford on feasibility,
   and on feasible systems every constraint holds and the rho is
   bit-identical (both are the canonical all-zero-start fixpoint). *)
let prop_solver_agreement =
  QCheck.Test.make ~name:"flat solver = hashed solver on feasible systems"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rg = Rgraph.of_circuit (circuit_of_seed seed) in
      let require = require_of rg seed in
      let solver = Retime.Solver.create rg in
      (match (Retime.solve rg ~require, Retime.Solver.run solver ~require) with
       | Retime.Feasible rho_h, Retime.Feasible rho_c ->
         if rho_h <> rho_c then
           QCheck.Test.fail_report "feasible rhos differ between solvers";
         if not (Retime.is_legal rg rho_c) then
           QCheck.Test.fail_report "flat solver rho is not legal";
         Array.iteri
           (fun e _ ->
             if Retime.retimed_weight rg rho_c e < require e then
               QCheck.Test.fail_reportf
                 "edge %d violates its register requirement" e)
           rg.Rgraph.edges
       | Retime.Infeasible _, Retime.Infeasible cycle ->
         if cycle = [] then
           QCheck.Test.fail_report "empty infeasibility witness"
       | Retime.Feasible _, Retime.Infeasible _
       | Retime.Infeasible _, Retime.Feasible _ ->
         QCheck.Test.fail_report "solvers disagree on feasibility");
      true)

(* A feasible potential fed back as the warm start is already a fixpoint:
   the solver must verify it without changing a single label. *)
let prop_warm_fixpoint =
  QCheck.Test.make ~name:"warm start from a feasible rho is a fixpoint"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rg = Rgraph.of_circuit (circuit_of_seed seed) in
      let require = require_of rg seed in
      let solver = Retime.Solver.create rg in
      (match Retime.Solver.run solver ~require with
       | Retime.Infeasible _ -> ()
       | Retime.Feasible rho ->
         (match Retime.Solver.run solver ~warm:rho ~require with
          | Retime.Infeasible _ ->
            QCheck.Test.fail_report "warm re-check of a feasible rho failed"
          | Retime.Feasible rho' ->
            if rho <> rho' then
              QCheck.Test.fail_report "warm start moved a feasible fixpoint"));
      true)

(* End-to-end: Merced.run's retiming certificate must satisfy the lint
   checker's independent re-derivation of the Leiserson-Saxe
   conditions, and its partitions must equal those of the hashed oracle
   pipeline (saturate, make_group, assign over the Netgraph). *)
let prop_certificates_and_oracle_partitions =
  QCheck.Test.make
    ~name:"CSR certificates are lint-clean, and partitions equal the oracle \
           pipeline's"
    ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = circuit_of_seed seed in
      let params = { Params.default with Params.l_k = 5 } in
      let r = Merced.run ~params c in
      (match Merced.retiming_certificate r with
       | None -> ()
       | Some cert ->
         let findings =
           List.filter Diag.is_finding
             (Dft_rules.retiming_legality r (Some cert))
         in
         if findings <> [] then
           QCheck.Test.fail_reportf "certificate rejected: %s"
             (Diag.to_human (List.hd findings)));
      let vertices (a : Assign.t) =
        List.map (fun (p : Assign.partition) -> p.Assign.vertices) a.Assign.partitions
      in
      if vertices r.Merced.assignment <> vertices (Hashed_oracle.partition c params)
      then QCheck.Test.fail_report "partitions differ from the oracle pipeline";
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_adjacency;
    QCheck_alcotest.to_alcotest prop_solver_agreement;
    QCheck_alcotest.to_alcotest prop_warm_fixpoint;
    QCheck_alcotest.to_alcotest prop_certificates_and_oracle_partitions;
  ]
