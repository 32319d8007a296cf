(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 4) on the synthetic benchmark suite, side by side
   with the published numbers, then times the compiler stages with
   Bechamel (one Test.make per table/figure).

   Run with: dune exec bench/main.exe
   Pass --quick to restrict the heavy tables to circuits under 25k area. *)

module Circuit = Ppet_netlist.Circuit
module Stats = Ppet_netlist.Stats
module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module Segment = Ppet_netlist.Segment
module To_graph = Ppet_netlist.To_graph
module Netgraph = Ppet_digraph.Netgraph
module Csr = Ppet_digraph.Csr
module Prng = Ppet_digraph.Prng
module Scc_budget = Ppet_retiming.Scc_budget
module Cbit = Ppet_bist.Cbit
module Pipeline = Ppet_bist.Pipeline
module Pet = Ppet_bist.Pet
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_sim = Ppet_bist.Fault_sim
module Fault_engine = Ppet_bist.Fault_engine
module Domain_pool = Ppet_parallel.Domain_pool
module Params = Ppet_core.Params
module Flow = Ppet_core.Flow
module Cluster = Ppet_core.Cluster
module Assign = Ppet_core.Assign
module Merced = Ppet_core.Merced
module Area = Ppet_core.Area_accounting
module Report = Ppet_core.Report
module Baseline_random = Ppet_core.Baseline_random
module Baseline_annealing = Ppet_core.Baseline_annealing
module Baseline_fm = Ppet_core.Baseline_fm
module Bench_stat = Ppet_obs.Bench_stat

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* published reference numbers                                         *)

(* Table 10 (l_k = 16): circuit -> dffs_on_scc, cuts_on_scc, nets_cut *)
let paper_t10 =
  [
    ("s510", (6, 77, 92));
    ("s420.1", (16, 0, 8));
    ("s641", (15, 19, 28));
    ("s713", (15, 24, 34));
    ("s820", (5, 68, 88));
    ("s832", (5, 77, 96));
    ("s838.1", (32, 0, 23));
    ("s1423", (71, 53, 65));
    ("s5378", (124, 283, 420));
    ("s9234.1", (172, 497, 700));
    ("s9234", (173, 471, 649));
    ("s13207.1", (462, 794, 975));
    ("s13207", (463, 817, 978));
    ("s15850.1", (487, 720, 1014));
    ("s35932", (1728, 2881, 2926));
    ("s38417", (1166, 1703, 2506));
    ("s38584.1", (1424, 3110, 3322));
  ]

(* Table 11 (l_k = 24): circuit -> cuts_on_scc, nets_cut *)
let paper_t11 =
  [
    ("s641", (12, 17));
    ("s713", (32, 38));
    ("s5378", (254, 392));
    ("s9234.1", (379, 531));
    ("s13207.1", (749, 931));
    ("s13207", (689, 845));
    ("s15850.1", (602, 872));
    ("s35932", (2639, 2667));
    ("s38417", (1555, 2279));
    ("s38584.1", (2593, 2764));
  ]

(* Table 12: circuit -> (w/R 16, w/o 16, w/R 24, w/o 24); 0 = no cuts *)
let paper_t12 =
  [
    ("s510", (78.8, 80.6, 0., 0.));
    ("s420.1", (19.7, 24.2, 0., 0.));
    ("s641", (18.9, 45.4, 13.2, 33.5));
    ("s713", (27.4, 48.5, 33.9, 51.3));
    ("s820", (67.2, 69.7, 0., 0.));
    ("s832", (69.0, 71.2, 0., 0.));
    ("s838.1", (25.6, 30.9, 0., 0.));
    ("s1423", (22.5, 41.8, 0., 0.));
    ("s5378", (46.8, 62.4, 43.4, 60.8));
    ("s9234.1", (49.3, 60.1, 38.8, 53.4));
    ("s9234", (45.5, 57.9, 0., 0.));
    ("s13207.1", (30.2, 55.7, 27.3, 54.5));
    ("s13207", (34.4, 55.4, 26.4, 51.7));
    ("s15850.1", (32.9, 54.0, 24.9, 50.3));
    ("s35932", (36.7, 58.8, 31.3, 56.5));
    ("s38417", (27.1, 54.0, 21.5, 51.6));
    ("s38584.1", (45.3, 59.8, 36.8, 55.3));
  ]

let suite_names =
  if quick then
    List.filter
      (fun n -> (Benchmarks.find n).Benchmarks.paper_area < 25_000.)
      Benchmarks.names
  else Benchmarks.names

(* ------------------------------------------------------------------ *)
(* Table 1 and Fig. 4                                                  *)

let table1 () =
  section "Table 1: area cost for various CBIT sizes";
  Printf.printf "%-6s %8s %12s %12s\n" "type" "length" "area/DFF" "per bit";
  Array.iter
    (fun (r : Cbit.cost_row) ->
      Printf.printf "%-6s %8d %12.2f %12.2f\n" r.Cbit.label r.Cbit.length
        r.Cbit.area_per_dff r.Cbit.per_bit)
    Cbit.cost_table

let fig4 () =
  section "Fig. 4: bit-wise area vs testing time per CBIT type";
  Printf.printf "%-6s %8s %14s %16s\n" "type" "length" "sigma (p/bit)"
    "testing cycles";
  Array.iter
    (fun (r : Cbit.cost_row) ->
      Printf.printf "%-6s %8d %14.3f %16.3g\n" r.Cbit.label r.Cbit.length
        (Ppet_core.Cost.bitwise_cost r.Cbit.length)
        (Cbit.testing_time r.Cbit.length))
    Cbit.cost_table;
  Printf.printf
    "(shape: per-bit cost falls slowly with length; testing time explodes \
     as 2^l — hence d4/d5 are the practical choices, as the paper argues)\n"

let fig1b () =
  section "Fig. 1(b): pipelined testing time is dominated by the widest CBIT";
  Printf.printf "%-34s %14s %10s\n" "pipe (CBIT widths)" "total cycles"
    "speed-up";
  List.iter
    (fun widths ->
      let s = Pipeline.of_segment_widths widths in
      Printf.printf "%-34s %14.0f %10.2fx\n"
        (String.concat "," (List.map string_of_int widths))
        (Pipeline.total_cycles s)
        (Pipeline.speedup_vs_serial s))
    [ [ 8; 8; 8; 8 ]; [ 12; 8; 8; 4 ]; [ 16; 16; 16; 16 ]; [ 16; 4; 4; 4 ];
      [ 24; 16; 12; 8 ] ]

(* ------------------------------------------------------------------ *)
(* Table 9                                                             *)

let table9 () =
  section "Table 9: circuit information (synthetic stand-ins vs published)";
  Printf.printf "%-10s %5s %6s %7s %6s %11s %11s\n" "circuit" "PIs" "DFFs"
    "gates" "INVs" "area" "paper area";
  List.iter
    (fun name ->
      let e = Benchmarks.find name in
      let c = Benchmarks.circuit name in
      let s = Stats.of_circuit c in
      Printf.printf "%-10s %5d %6d %7d %6d %11.0f %11.0f\n" name s.Stats.n_pi
        s.Stats.n_dff s.Stats.n_gates s.Stats.n_inv s.Stats.area
        e.Benchmarks.paper_area)
    suite_names

(* ------------------------------------------------------------------ *)
(* Tables 10/11/12 and Fig. 8 (memoized Merced runs)                   *)

let merced_cache : (string * int, Merced.result) Hashtbl.t = Hashtbl.create 40

let merced name lk =
  match Hashtbl.find_opt merced_cache (name, lk) with
  | Some r -> r
  | None ->
    let c = Benchmarks.circuit name in
    let r = Merced.run ~params:(Params.with_lk lk) c in
    Hashtbl.replace merced_cache (name, lk) r;
    r

let table10 () =
  section "Table 10: partition results for l_k = 16 (measured | paper)";
  Printf.printf "%-10s %6s | %9s %9s | %9s %9s | %8s\n" "circuit" "DFFs"
    "scc-cuts" "(paper)" "nets-cut" "(paper)" "CPU(s)";
  List.iter
    (fun name ->
      let r = merced name 16 in
      let b = r.Merced.breakdown in
      let p_scc, p_cut =
        match List.assoc_opt name paper_t10 with
        | Some (_, s, c) -> (s, c)
        | None -> (0, 0)
      in
      Printf.printf "%-10s %6d | %9d %9d | %9d %9d | %8.2f\n" name
        b.Area.dffs_total b.Area.cuts_on_scc p_scc b.Area.cuts_total p_cut
        r.Merced.cpu_seconds)
    suite_names

let table11 () =
  section "Table 11: partition results for l_k = 24 (measured | paper)";
  Printf.printf "%-10s %6s | %9s %9s | %9s %9s | %8s\n" "circuit" "DFFs"
    "scc-cuts" "(paper)" "nets-cut" "(paper)" "CPU(s)";
  List.iter
    (fun name ->
      let e = Benchmarks.find name in
      if e.Benchmarks.in_table11 then begin
        let r = merced name 24 in
        let b = r.Merced.breakdown in
        let p_scc, p_cut =
          match List.assoc_opt name paper_t11 with
          | Some v -> v
          | None -> (0, 0)
        in
        Printf.printf "%-10s %6d | %9d %9d | %9d %9d | %8.2f\n" name
          b.Area.dffs_total b.Area.cuts_on_scc p_scc b.Area.cuts_total p_cut
          r.Merced.cpu_seconds
      end)
    suite_names

let table12 () =
  section "Table 12: ACBIT/ATotal (%) with vs without retiming";
  Printf.printf
    "%-10s | %23s | %23s | %23s\n" "" "l_k=16 measured" "l_k=16 paper"
    "l_k=16 strict-budget";
  Printf.printf "%-10s | %7s %7s %7s | %11s %11s | %11s %11s\n" "circuit"
    "w/R" "w/o" "saved" "w/R" "w/o" "w/R" "mux";
  List.iter
    (fun name ->
      let r = merced name 16 in
      let b = r.Merced.breakdown in
      let p16r, p16p, _, _ =
        match List.assoc_opt name paper_t12 with
        | Some v -> v
        | None -> (0., 0., 0., 0.)
      in
      (* w/R under the paper's full-utilization arithmetic; the strict
         per-loop budget (Eq. 2/6) appears in the last columns *)
      Printf.printf
        "%-10s | %7.1f %7.1f %7.1f | %11.1f %11.1f | %11.1f %11d\n" name
        b.Area.ratio_full_utilization b.Area.ratio_without
        b.Area.saving_full_utilization p16r p16p b.Area.ratio_with
        b.Area.mux_excess)
    suite_names;
  (* l_k = 24 variant *)
  Printf.printf "\n%-10s | %23s | %23s\n" "" "l_k=24 measured" "l_k=24 paper";
  Printf.printf "%-10s | %7s %7s %7s | %11s %11s\n" "circuit" "w/R" "w/o"
    "saved" "w/R" "w/o";
  List.iter
    (fun name ->
      let e = Benchmarks.find name in
      if e.Benchmarks.in_table11 then begin
        let r = merced name 24 in
        let b = r.Merced.breakdown in
        let _, _, p24r, p24p =
          match List.assoc_opt name paper_t12 with
          | Some v -> v
          | None -> (0., 0., 0., 0.)
        in
        Printf.printf "%-10s | %7.1f %7.1f %7.1f | %11.1f %11.1f\n" name
          b.Area.ratio_full_utilization b.Area.ratio_without
          b.Area.saving_full_utilization p24r p24p
      end)
    suite_names;
  (* headline average *)
  let savings =
    List.map
      (fun name ->
        (merced name 16).Merced.breakdown.Area.saving_full_utilization)
      suite_names
  in
  let avg = List.fold_left ( +. ) 0.0 savings /. float_of_int (List.length savings) in
  Printf.printf
    "\naverage saving at l_k=16 (full-utilization model): %.1f points \
     (paper's headline: ~20%%)\n"
    avg

let fig8 () =
  section "Fig. 8: area saving of retiming grows with circuit size";
  Printf.printf "%-10s %11s %11s %11s\n" "circuit" "area" "saved(pp)"
    "saved-strict";
  List.iter
    (fun name ->
      let r = merced name 16 in
      let b = r.Merced.breakdown in
      Printf.printf "%-10s %11.0f %11.1f %11.1f\n" name b.Area.circuit_area
        b.Area.saving_full_utilization b.Area.saving)
    suite_names

(* ------------------------------------------------------------------ *)
(* ablations                                                           *)

let ablation_partitioners () =
  section "Ablation A: flow-based clustering vs baselines (l_k = 16)";
  Printf.printf
    "%-10s | %8s %7s | %8s %7s | %8s %7s | %8s %7s\n" "circuit" "merced"
    "t(s)" "random" "t(s)" "FM" "t(s)" "anneal" "t(s)";
  let timed f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  List.iter
    (fun name ->
      let c = Benchmarks.circuit name in
      let g = To_graph.partition_view c in
      let params = Params.with_lk 16 in
      let merced_r, merced_t =
        timed (fun () -> Merced.run ~params c)
      in
      let merced_cuts = List.length merced_r.Merced.assignment.Assign.cut_nets in
      let random, random_t =
        timed (fun () -> Baseline_random.run c g params (Prng.create 11L))
      in
      let fm, fm_t =
        timed (fun () -> Baseline_fm.run c g params (Prng.create 11L))
      in
      let annealing, anneal_t =
        timed (fun () ->
            Baseline_annealing.run ~moves_per_temp:(2 * Netgraph.n_nodes g)
              ~initial_temp:3.0 ~cooling:0.8 c g params (Prng.create 11L))
      in
      Printf.printf
        "%-10s | %8d %7.2f | %8d %7.2f | %8d %7.2f | %8d %7.2f\n" name
        merced_cuts merced_t
        (List.length random.Assign.cut_nets)
        random_t
        (List.length fm.Baseline_fm.result.Assign.cut_nets)
        fm_t
        (List.length annealing.Baseline_annealing.result.Assign.cut_nets)
        anneal_t)
    [ "s510"; "s641"; "s820"; "s838.1"; "s1423" ];
  (* one larger circuit: FM's O(n^2)-per-pass scan is already impractical
     there, so only the cheap baselines run *)
  let name = "s5378" in
  let c = Benchmarks.circuit name in
  let g = To_graph.partition_view c in
  let params = Params.with_lk 16 in
  let merced_r, merced_t = (let t0 = Sys.time () in let v = Merced.run ~params c in (v, Sys.time () -. t0)) in
  let random, random_t = (let t0 = Sys.time () in let v = Baseline_random.run c g params (Prng.create 11L) in (v, Sys.time () -. t0)) in
  let annealing, anneal_t =
    (let t0 = Sys.time () in
     let v = Baseline_annealing.run ~moves_per_temp:(2 * Netgraph.n_nodes g)
         ~initial_temp:3.0 ~cooling:0.8 c g params (Prng.create 11L) in
     (v, Sys.time () -. t0))
  in
  Printf.printf "%-10s | %8d %7.2f | %8d %7.2f | %8s %7s | %8d %7.2f\n" name
    (List.length merced_r.Merced.assignment.Assign.cut_nets) merced_t
    (List.length random.Assign.cut_nets) random_t "-" "-"
    (List.length annealing.Baseline_annealing.result.Assign.cut_nets) anneal_t;
  Printf.printf
    "(all rows satisfy the input constraint with zero oversize partitions; \
     on these synthetic circuits the authors' earlier annealing approach, \
     ref [4], finds roughly half the cuts of the flow heuristic at every \
     size tested, and FM sits between them but its quadratic passes stop \
     scaling at ~3k nodes — the flow heuristic's selling point is \
     near-linear time, not cut quality)\n"

let ablation_beta () =
  section "Ablation B: the Eq. 6 budget (beta) on s5378, l_k = 16";
  Printf.printf "%5s %9s %12s %10s %9s %9s %10s\n" "beta" "nets-cut"
    "cuts-on-SCC" "mux-cells" "w/R(%)" "w/o(%)" "oversize";
  List.iter
    (fun beta ->
      let c = Benchmarks.circuit "s5378" in
      let params = { (Params.with_lk 16) with Params.beta } in
      let r = Merced.run ~params c in
      let b = r.Merced.breakdown in
      let oversize =
        List.length
          (List.filter
             (fun (p : Assign.partition) -> p.Assign.oversize)
             r.Merced.assignment.Assign.partitions)
      in
      Printf.printf "%5d %9d %12d %10d %9.1f %9.1f %10d\n" beta
        b.Area.cuts_total b.Area.cuts_on_scc b.Area.mux_excess
        b.Area.ratio_with b.Area.ratio_without oversize)
    [ 1; 2; 5; 50 ]

let ablation_flow_params () =
  section "Ablation C: Saturate_Network sampling (s1423, l_k = 16)";
  Printf.printf "%10s %7s %12s %9s\n" "min_visit" "alpha" "iterations"
    "nets-cut";
  List.iter
    (fun (min_visit, alpha) ->
      let c = Benchmarks.circuit "s1423" in
      let params =
        { (Params.with_lk 16) with Params.min_visit; alpha }
      in
      let r = Merced.run ~params c in
      Printf.printf "%10d %7.1f %12d %9d\n" min_visit alpha
        r.Merced.flow.Flow.iterations
        r.Merced.breakdown.Area.cuts_total)
    [ (2, 4.0); (20, 4.0); (60, 4.0); (20, 1.0); (20, 8.0) ]

(* ------------------------------------------------------------------ *)
(* validation: pseudo-exhaustive coverage on real segments             *)

let validation_coverage () =
  section "Validation: PPET segments reach full detectable coverage";
  Printf.printf "%-10s %9s %9s %10s %11s %10s\n" "circuit" "segments"
    "tested" "faults" "detectable" "coverage";
  List.iter
    (fun name ->
      let c =
        if name = "s27" then Ppet_netlist.S27.circuit ()
        else Benchmarks.circuit name
      in
      let r = Merced.run ~params:(Params.with_lk 12) c in
      let sim = Simulator.create c in
      let segments = Merced.segments r in
      let tested = ref 0 and faults = ref 0 and detected = ref 0 in
      let redundant = ref 0 in
      List.iter
        (fun seg ->
          let w = Segment.input_count seg in
          if w > 0 && w <= 14 then begin
            incr tested;
            let rep = Pet.run sim seg in
            faults := !faults + rep.Pet.n_faults;
            detected := !detected + rep.Pet.n_detected;
            redundant := !redundant + rep.Pet.n_redundant
          end)
        segments;
      let detectable = !faults - !redundant in
      Printf.printf "%-10s %9d %9d %10d %11d %9.1f%%\n" name
        (List.length segments) !tested !faults detectable
        (if detectable = 0 then 100.0
         else 100.0 *. float_of_int !detected /. float_of_int detectable))
    [ "s27"; "s510"; "s641" ];
  (* phase assignment of the full pipeline *)
  Printf.printf "\nTest phases (partition adjacency colouring, l_k = 16):\n";
  List.iter
    (fun name ->
      let r = merced name 16 in
      let p = Ppet_core.Phasing.compute r in
      let s = Ppet_core.Phasing.schedule r in
      Printf.printf
        "  %-10s %3d partitions, %3d adjacencies -> %d phase(s), total %.3g cycles\n"
        name
        (Array.length p.Ppet_core.Phasing.phase_of)
        (List.length p.Ppet_core.Phasing.adjacency)
        p.Ppet_core.Phasing.phases
        (Pipeline.total_cycles s))
    [ "s510"; "s641"; "s1423" ];
  (* fault-dictionary diagnosis on one segment *)
  Printf.printf "\nSignature diagnosis (s27 combinational core, 16-bit MISR):\n";
  let c27 = Ppet_netlist.S27.circuit () in
  let sim27 = Simulator.create c27 in
  let seg27 = Segment.of_members c27 (Circuit.combinational c27) in
  let faults27 =
    Ppet_bist.Fault.collapse c27 (Ppet_bist.Fault.of_segment c27 seg27)
  in
  let dict = Ppet_bist.Diagnosis.build sim27 seg27 ~misr_width:16 faults27 in
  Printf.printf
    "  %d faults -> %d signature classes (resolution %.2f), %d undiagnosable\n"
    (List.length faults27)
    (Ppet_bist.Diagnosis.distinguishable_classes dict)
    (Ppet_bist.Diagnosis.resolution dict)
    (List.length (Ppet_bist.Diagnosis.undiagnosable dict));
  (* whole-chip gate-level self-test session with parallel fault sim *)
  Printf.printf
    "\nWhole-chip PPET session (gate level, PSA-everywhere, 2048-cycle burst):\n";
  List.iter
    (fun (name, lk) ->
      let c =
        if name = "s27" then Ppet_netlist.S27.circuit ()
        else Benchmarks.circuit name
      in
      let r = Merced.run ~params:(Params.with_lk lk) c in
      let t = Ppet_core.Testable.insert r in
      let rep = Ppet_core.Session.run ~max_burst:2048 t in
      Printf.printf
        "  %-10s %4d faults, %4d detected -> %5.1f%% coverage%s\n" name
        rep.Ppet_core.Session.n_faults rep.Ppet_core.Session.n_detected
        (100.0 *. rep.Ppet_core.Session.coverage)
        (if rep.Ppet_core.Session.truncated then " (truncated burst)" else ""))
    [ ("s27", 3); ("s510", 12); ("s641", 12); ("s1423", 16) ]

(* ------------------------------------------------------------------ *)
(* Bechamel timings: one Test.make per table/figure                    *)

let bechamel_timings () =
  section "Stage timings (Bechamel, one test per table/figure)";
  let open Bechamel in
  let c = Benchmarks.circuit "s1423" in
  let g = To_graph.partition_view c in
  let params = Params.with_lk 16 in
  let csr = Csr.of_netgraph g in
  let sb = Scc_budget.create c g in
  let flow = Flow.saturate csr params (Prng.create 1L) in
  let clustering = Cluster.make_group ~csr c g sb flow params in
  let sim = Simulator.create c in
  let seg =
    let r = merced "s510" 12 in
    List.find
      (fun s -> Segment.input_count s > 0 && Segment.input_count s <= 10)
      (Merced.segments r)
  in
  let sim510 = Simulator.create (Benchmarks.circuit "s510") in
  let tests =
    [
      Test.make ~name:"table1-cbit-cost"
        (Staged.stage (fun () -> Ppet_core.Cost.sigma [ 16; 24; 8; 4 ]));
      Test.make ~name:"fig4-testing-time"
        (Staged.stage (fun () -> Cbit.testing_time 24));
      Test.make ~name:"fig1b-pipeline-model"
        (Staged.stage (fun () ->
             Pipeline.total_cycles (Pipeline.of_segment_widths [ 16; 8; 4 ])));
      Test.make ~name:"table9-generate-s510"
        (Staged.stage (fun () ->
             Generator.generate (Benchmarks.find "s510").Benchmarks.profile));
      Test.make ~name:"table10-saturate-s1423"
        (Staged.stage (fun () -> Flow.saturate csr params (Prng.create 1L)));
      Test.make ~name:"table10-cluster-s1423"
        (Staged.stage (fun () ->
             Cluster.make_group ~csr c g sb flow params));
      Test.make ~name:"table10-assign-s1423"
        (Staged.stage (fun () ->
             Assign.run ~csr c g clustering params (Prng.create 1L)));
      Test.make ~name:"table12-area-accounting"
        (Staged.stage (fun () ->
             Area.compute c sb
               ~cut_nets:(Cluster.cut_nets clustering g)
               ~partition_iotas:[ 16; 16; 12 ]));
      Test.make ~name:"validation-pet-segment"
        (Staged.stage (fun () -> Pet.run sim510 seg));
      Test.make ~name:"simulator-step-s1423"
        (Staged.stage
           (let dffs = Circuit.dffs c in
            let state = Array.make (Array.length dffs) 0 in
            let pi = Array.make (Array.length c.Circuit.inputs) 0 in
            fun () -> Simulator.step sim ~state ~pi));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "%-28s %16s\n" "stage" "time per run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            let pretty =
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            Printf.printf "%-28s %16s\n" name pretty
          | Some _ | None -> Printf.printf "%-28s %16s\n" name "n/a")
        analysed)
    tests

(* ------------------------------------------------------------------ *)
(* fault-engine timings: seed serial loop vs engine at 1 and 8 words  *)

let bench_fault_engine () =
  section "Fault engine: seed serial vs the engine at 1 and 8 words, serial and parallel";
  (* one large PPET-partition-profile CUT: the several hundred
     topologically earliest combinational gates of the s5378 stand-in *)
  let c = Benchmarks.circuit "s5378" in
  let sim = Simulator.create c in
  let order = Simulator.order sim in
  let members = Array.sub order 0 (min 400 (Array.length order)) in
  let seg = Segment.of_members c members in
  let faults = Fault.collapse c (Fault.of_segment c seg) in
  let n_in = Array.length (Segment.input_signals seg) in
  (* random word batches: 62 patterns per batch, 12 batches *)
  let rng = Prng.create 0xBE5CL in
  let word () =
    Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
  in
  let patterns = List.init 12 (fun _ -> Array.init n_in (fun _ -> word ())) in
  let n_patterns =
    Ppet_netlist.Gate.bits_per_word * List.length patterns
  in
  let engine = Fault_engine.create sim seg in
  let batches = Fault_engine.Batch.Batches patterns in
  Printf.printf
    "segment: %d members, iota-signals %d; %d collapsed faults x %d patterns\n"
    (Array.length seg.Segment.members)
    n_in (List.length faults) n_patterns;
  (* the same circuit-shape stamp the pipeline sweep carries, so the
     bench guard can match both artefacts on workload identity *)
  let stats =
    let g = To_graph.partition_view c in
    Some
      {
        Report.gates = Array.length (Circuit.combinational c);
        dffs = Array.length (Circuit.dffs c);
        edges = Netgraph.n_nets g;
        segments = 0;
        largest_cluster = 0;
      }
  in
  let med ~jobs entry_name f =
    let s = Bench_stat.measure ~warmup:1 ~repeat:7 f in
    {
      Report.entry_name;
      median_ns = s.Bench_stat.median_ns;
      mad_ns = s.Bench_stat.mad_ns;
      jobs;
      circuit_stats = stats;
    }
  in
  let policy ?pool ~words () =
    (* dropping off: a fixed workload is what makes runs comparable *)
    Fault_engine.Batch.policy ~words ?pool ~drop:Fault_engine.Batch.Keep ()
  in
  let seed =
    med ~jobs:1 "fault_sim/seed_serial" (fun () ->
        ignore (Fault_sim.segment_detects sim seg ~patterns faults))
  in
  let cone =
    med ~jobs:1 "fault_sim/cone" (fun () ->
        ignore
          (Fault_engine.Batch.run engine (policy ~words:1 ()) ~patterns:batches
             faults))
  in
  let multi =
    med ~jobs:1 "fault_sim/multiword" (fun () ->
        ignore
          (Fault_engine.Batch.run engine (policy ~words:8 ()) ~patterns:batches
             faults))
  in
  let par, par_multi =
    Domain_pool.with_pool ~jobs:4 (fun pool ->
        ( med ~jobs:4 "fault_sim/cone" (fun () ->
              ignore
                (Fault_engine.Batch.run engine
                   (policy ~pool ~words:1 ())
                   ~patterns:batches faults)),
          med ~jobs:4 "fault_sim/multiword" (fun () ->
              ignore
                (Fault_engine.Batch.run engine
                   (policy ~pool ~words:8 ())
                   ~patterns:batches faults)) ))
  in
  let per_fp (e : Report.bench_entry) =
    e.Report.median_ns
    /. (float_of_int (List.length faults) *. float_of_int n_patterns)
  in
  Printf.printf "%-28s %16s %16s\n" "engine" "time per run" "ns/fault-pattern";
  List.iter
    (fun (name, e) ->
      Printf.printf "%-28s %13.2f ms %16.3f\n" name
        (e.Report.median_ns /. 1e6) (per_fp e))
    [
      ("seed serial loop", seed);
      ("engine x1, jobs 1", cone);
      ("engine x8, jobs 1", multi);
      ("engine x1, jobs 4", par);
      ("engine x8, jobs 4", par_multi);
    ];
  Printf.printf
    "speedup vs seed: %.1fx (jobs 1), %.1fx (jobs 4); 8 words vs 1: \
     %.1fx (jobs 1), %.1fx (jobs 4)\n"
    (seed.Report.median_ns /. cone.Report.median_ns)
    (seed.Report.median_ns /. par.Report.median_ns)
    (cone.Report.median_ns /. multi.Report.median_ns)
    (par.Report.median_ns /. par_multi.Report.median_ns);
  let json =
    Report.bench_json ~name:"fault_sim"
      ~entries:[ seed; cone; multi; par; par_multi ]
  in
  let oc = open_out "BENCH_fault_sim.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_fault_sim.json\n"

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "PPET benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  table1 ();
  fig4 ();
  fig1b ();
  table9 ();
  table10 ();
  table11 ();
  table12 ();
  fig8 ();
  ablation_partitioners ();
  ablation_beta ();
  ablation_flow_params ();
  validation_coverage ();
  bechamel_timings ();
  bench_fault_engine ();
  print_newline ()
