module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module To_graph = Ppet_netlist.To_graph
module Prng = Ppet_digraph.Prng
module Scc_budget = Ppet_retiming.Scc_budget
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Domain_pool = Ppet_parallel.Domain_pool
module Bench_stat = Ppet_obs.Bench_stat

type plan = {
  benchmarks : string list;
  repeat : int;
  jobs : int;
}

let default_plan =
  { benchmarks = [ "s27"; "s510"; "s420.1"; "s641" ]; repeat = 5; jobs = 2 }

let circuit_of name =
  if name = "s27" then Ppet_netlist.S27.circuit ()
  else Benchmarks.circuit name

(* The fault-sim workload: the (up to) 400 lowest-id combinational gates
   as one segment, driven by eight 62-pattern word batches from a fixed
   PRNG stream — the same recipe as the bench harness's shootout, scaled
   down so the sweep stays interactive. *)
let fault_workload c sim =
  let comb = Circuit.combinational c in
  if Array.length comb = 0 then None
  else begin
    let members = Array.sub comb 0 (min 400 (Array.length comb)) in
    let seg = Segment.of_members c members in
    let faults = Fault.collapse c (Fault.of_segment c seg) in
    let n_in = Array.length (Segment.input_signals seg) in
    let rng = Prng.create 0xBE5CL in
    let word () =
      Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
    in
    let patterns =
      Fault_engine.Batch.Batches
        (List.init 8 (fun _ -> Array.init n_in (fun _ -> word ())))
    in
    Some (Fault_engine.create sim seg, patterns, faults)
  end

let phase_list plan name ~has_comb =
  let serial =
    [ "generate"; "flow"; "cluster"; "assign"; "retime"; "analysis" ]
  in
  let serial = List.map (fun p -> (name ^ "/" ^ p, 1)) serial in
  if not has_comb then serial
  else
    serial
    @ [ (name ^ "/fault_sim", 1) ]
    @ if plan.jobs > 1 then [ (name ^ "/fault_sim", plan.jobs) ] else []

(* Structural identity of the measured circuit, stamped on every entry:
   a baseline only means something against the same workload, so the
   regression guard can refuse to compare medians across generator or
   profile changes. *)
let stats_of c g =
  {
    Report.gates = Array.length (Circuit.combinational c);
    dffs = Array.length (Circuit.dffs c);
    edges = Ppet_digraph.Netgraph.n_nets g;
    (* partition shape is stamped after the compile ran; 0 = unknown *)
    segments = 0;
    largest_cluster = 0;
  }

(* the partition shape the pre-compile stats cannot carry *)
let stamp_partition_shape stats r =
  let segs = Merced.segments r in
  {
    stats with
    Report.segments = List.length segs;
    largest_cluster =
      List.fold_left
        (fun m s -> max m (Array.length s.Segment.members))
        0 segs;
  }

let entry_names plan =
  List.concat_map
    (fun name ->
      let c = circuit_of name in
      let has_comb = Array.length (Circuit.combinational c) > 0 in
      let stats = stats_of c (To_graph.partition_view c) in
      List.map
        (fun (entry_name, jobs) ->
          { Report.entry_name; median_ns = 0.; mad_ns = 0.; jobs;
            circuit_stats = Some stats })
        (phase_list plan name ~has_comb))
    plan.benchmarks

let run ?(progress = fun _ -> ()) plan =
  if plan.repeat < 1 then invalid_arg "Bench_runner.run: repeat must be >= 1";
  if plan.jobs < 1 then invalid_arg "Bench_runner.run: jobs must be >= 1";
  (* the published settings: the committed baselines stamp the
     partition shape these produce, and the guard refuses any other *)
  let params = Params.paper in
  List.concat_map
    (fun name ->
      let c = circuit_of name in
      let g = To_graph.partition_view c in
      let stats = stats_of c g in
      (* every row starts from a collected heap: a microsecond stage
         timed after a compile would otherwise also time the major-GC
         work the compile left pending *)
      let measure ~jobs phase f =
        let entry_name = name ^ "/" ^ phase in
        progress entry_name;
        Gc.full_major ();
        let s = Bench_stat.measure ~repeat:plan.repeat f in
        {
          Report.entry_name;
          median_ns = s.Bench_stat.median_ns;
          mad_ns = s.Bench_stat.mad_ns;
          jobs;
          circuit_stats = Some stats;
        }
      in
      let generate =
        if name = "s27" then
          measure ~jobs:1 "generate" (fun () ->
              ignore (Ppet_netlist.S27.circuit ()))
        else begin
          let profile = (Benchmarks.find name).Benchmarks.profile in
          measure ~jobs:1 "generate" (fun () ->
              ignore (Generator.generate profile))
        end
      in
      let sb = Scc_budget.create c g in
      (* the stages on the flat snapshot, exactly as Merced.run drives
         them *)
      let csr = Ppet_digraph.Csr.of_netgraph g in
      let flow_entry =
        measure ~jobs:1 "flow" (fun () ->
            ignore (Flow.saturate csr params (Prng.create 1L)))
      in
      let flow = Flow.saturate csr params (Prng.create 1L) in
      let cluster_entry =
        measure ~jobs:1 "cluster" (fun () ->
            ignore (Cluster.make_group ~csr c g sb flow params))
      in
      let clustering = Cluster.make_group ~csr c g sb flow params in
      let assign_entry =
        measure ~jobs:1 "assign" (fun () ->
            ignore (Assign.run ~csr c g clustering params (Prng.create 1L)))
      in
      let r = Merced.run ~params c in
      let retime_entry =
        measure ~jobs:1 "retime" (fun () ->
            ignore (Merced.retiming_certificate r))
      in
      let analysis_entry =
        measure ~jobs:1 "analysis" (fun () ->
            let sched = Ppet_analysis.Dataflow.prepare csr in
            let constants = Ppet_analysis.Ternary.constants sched c in
            ignore (Ppet_analysis.Ternary.initializable sched c ~constants);
            ignore (Ppet_analysis.Scoap.compute sched c ~constants))
      in
      let serial =
        [
          generate; flow_entry; cluster_entry; assign_entry; retime_entry;
          analysis_entry;
        ]
      in
      let sim = Simulator.create c in
      let entries =
        match fault_workload c sim with
        | None -> serial
        | Some (engine, patterns, faults) ->
          (* words = 1: one pattern word per gate visit, the
             per-fault-pattern work of the committed baselines *)
          let policy pool =
            Fault_engine.Batch.policy ~words:1 ?pool
              ~drop:Fault_engine.Batch.Keep ()
          in
          let fs1 =
            measure ~jobs:1 "fault_sim" (fun () ->
                ignore
                  (Fault_engine.Batch.run engine (policy None) ~patterns faults))
          in
          let fsn =
            if plan.jobs <= 1 then []
            else
              Domain_pool.with_pool ~jobs:plan.jobs (fun pool ->
                  [
                    measure ~jobs:plan.jobs "fault_sim" (fun () ->
                        ignore
                          (Fault_engine.Batch.run engine (policy (Some pool))
                             ~patterns faults));
                  ])
          in
          serial @ (fs1 :: fsn)
      in
      (* restamp every row with the partition shape of the compiled
         circuit, which the guard's workload check compares *)
      let full_stats = stamp_partition_shape stats r in
      List.map
        (fun (e : Report.bench_entry) ->
          { e with Report.circuit_stats = Some full_stats })
        entries)
    plan.benchmarks
