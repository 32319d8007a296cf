(* The dataflow analyses and the untestable-fault classifier.

   The load-bearing property is soundness: every fault the classifier
   calls untestable must be undetected by exhaustive simulation of its
   segment — checked against the seed Fault_sim oracle and the
   production batch engine at words 1/4/8 on random sequential circuits,
   plus hand-built fixtures for each of the three proof shapes. *)

module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Generator = Ppet_netlist.Generator
module Benchmarks = Ppet_netlist.Benchmarks
module To_graph = Ppet_netlist.To_graph
module Gate = Ppet_netlist.Gate
module Parser = Ppet_netlist.Bench_parser
module Csr = Ppet_digraph.Csr
module Fault = Ppet_bist.Fault
module Fault_sim = Ppet_bist.Fault_sim
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Simulator = Ppet_bist.Simulator
module Domain_pool = Ppet_parallel.Domain_pool
module Dataflow = Ppet_analysis.Dataflow
module Ternary = Ppet_analysis.Ternary
module Scoap = Ppet_analysis.Scoap
module Untestable = Ppet_analysis.Untestable

let sched_of c = Dataflow.prepare (Csr.of_netgraph (To_graph.partition_view c))

let node_named c name =
  let found = ref (-1) in
  for v = 0 to Circuit.size c - 1 do
    if (Circuit.node c v).Circuit.name = name then found := v
  done;
  if !found < 0 then Alcotest.failf "no node named %s" name;
  !found

let comb_segment c = Segment.of_members c (Circuit.combinational c)

let classify_comb c =
  let seg = comb_segment c in
  let faults = Fault.collapse c (Fault.of_segment c seg) in
  (seg, faults, Untestable.classify (Untestable.ctx c) seg faults)

(* ------------------------------------------------------------------ *)
(* fixtures: one per proof shape                                       *)

(* z = AND(a, NOT a) is constant 0 through the inverter chain: its
   stuck-at-0 is unexcitable, and the AND it feeds can never open, so
   the sibling pin is blocked *)
let test_fixture_tied_constant () =
  (* p = NOT(b) keeps b on a multi-fanout net, so collapsing does not
     fold the pin fault on o into b's output fault *)
  let c =
    Parser.parse_string
      "INPUT(a)\nINPUT(b)\nna = NOT(a)\nz = AND(a, na)\no = AND(b, z)\n\
       p = NOT(b)\nOUTPUT(o)\nOUTPUT(p)\n"
  in
  let _, _, cls = classify_comb c in
  let z = node_named c "z" and o = node_named c "o" in
  let reason_of f =
    List.assoc_opt f
      (List.map (fun (f, r) -> (f, r)) cls.Untestable.untestable)
  in
  Alcotest.(check bool) "z s-a-0 unexcitable" true
    (reason_of { Fault.site = Fault.Output z; stuck_at = false }
     = Some Untestable.Unexcitable);
  Alcotest.(check bool) "o s-a-0 unexcitable" true
    (reason_of { Fault.site = Fault.Output o; stuck_at = false }
     = Some Untestable.Unexcitable);
  (* pin b of o: with the other pin stuck 0 the AND output is 0 under
     both forcings of b *)
  Alcotest.(check bool) "b pin of o blocked" true
    (reason_of { Fault.site = Fault.Input_pin (o, 0); stuck_at = true }
     = Some Untestable.Blocked)

let test_fixture_unobservable () =
  let c =
    Parser.parse_string
      "INPUT(a)\nINPUT(b)\no = AND(a, b)\ndead = OR(a, b)\nOUTPUT(o)\n"
  in
  let _, _, cls = classify_comb c in
  let dead = node_named c "dead" in
  let r =
    List.filter_map
      (fun (f, r) ->
        match f.Fault.site with
        | Fault.Output v when v = dead -> Some r
        | Fault.Output _ -> None
        | Fault.Input_pin (g, _) -> if g = dead then Some r else None)
      cls.Untestable.untestable
  in
  Alcotest.(check bool) "all dead faults unobservable" true
    (r <> [] && List.for_all (fun x -> x = Untestable.Unobservable) r)

(* a reset-free flip-flop loop: q and everything it dominates may hold X
   forever, while the PI-driven half of the circuit is initializable *)
let test_fixture_x_dff () =
  let c =
    Parser.parse_string
      "INPUT(a)\nq = DFF(nq)\nnq = NOT(q)\ng = AND(a, q)\nh = NOT(a)\n\
       OUTPUT(g)\nOUTPUT(h)\n"
  in
  let sched = sched_of c in
  let constants = Ternary.constants sched c in
  let init = Ternary.initializable sched c ~constants in
  Alcotest.(check bool) "q stays X" false (init.(node_named c "q"));
  Alcotest.(check bool) "g inherits X" false (init.(node_named c "g"));
  Alcotest.(check bool) "h initializable" true (init.(node_named c "h"));
  Alcotest.(check bool) "a initializable" true (init.(node_named c "a"))

(* the segment-local soundness trap: b and NOT(b) are complementary in
   the circuit, but the XOR reads NOT(b) from OUTSIDE the segment, and
   the test hardware drives segment inputs independently — so the XOR is
   NOT constant under test and nothing may be pruned from it *)
let test_fixture_boundary_roots_stay_independent () =
  let c =
    Parser.parse_string
      "INPUT(b)\nnb = NOT(b)\nx = XOR(b, nb)\nOUTPUT(x)\nOUTPUT(nb)\n"
  in
  let x = node_named c "x" in
  let seg = Segment.of_members c [| x |] in
  let faults = Fault.collapse c (Fault.of_segment c seg) in
  let cls = Untestable.classify (Untestable.ctx c) seg faults in
  Alcotest.(check int) "nothing pruned across the boundary" 0
    (List.length cls.Untestable.untestable);
  (* whole-circuit constants DO see the equality: x is constant 1 *)
  let constants = Ternary.constants (sched_of c) c in
  Alcotest.(check int) "global fixpoint proves x = 1" Ternary.one
    constants.(x)

(* ------------------------------------------------------------------ *)
(* scoap spot checks                                                   *)

let test_scoap_basics () =
  let c =
    Parser.parse_string
      "INPUT(a)\nINPUT(b)\no = AND(a, b)\ndead = OR(a, b)\nOUTPUT(o)\n"
  in
  let sched = sched_of c in
  let constants = Ternary.constants sched c in
  let s = Scoap.compute sched c ~constants in
  let a = node_named c "a" and o = node_named c "o" in
  let dead = node_named c "dead" in
  Alcotest.(check int) "PI cc0" 1 s.Scoap.cc0.(a);
  Alcotest.(check int) "PI cc1" 1 s.Scoap.cc1.(a);
  (* AND: cc1 = 1+1+1, cc0 = min(1,1)+1 *)
  Alcotest.(check int) "AND cc1" 3 s.Scoap.cc1.(o);
  Alcotest.(check int) "AND cc0" 2 s.Scoap.cc0.(o);
  Alcotest.(check int) "PO co" 0 s.Scoap.co.(o);
  (* observing a through the AND costs co(o)+1 plus setting b to 1 *)
  Alcotest.(check int) "side-pin cost" 2 s.Scoap.co.(a);
  Alcotest.(check bool) "dead gate unobservable" true
    (s.Scoap.co.(dead) >= Scoap.inf)

(* ------------------------------------------------------------------ *)
(* properties                                                          *)

let random_circuit seed =
  let rng = Ppet_digraph.Prng.create (Int64.of_int ((seed * 13) + 5)) in
  Generator.small_random
    ~seed:(Int64.of_int ((seed * 7) + 1))
    ~n_pi:(2 + Ppet_digraph.Prng.int rng 3)
    ~n_dff:(Ppet_digraph.Prng.int rng 3)
    ~n_gates:(4 + Ppet_digraph.Prng.int rng 12)

(* soundness: untestable => undetected by exhaustive simulation, against
   both the seed oracle and the batch engine at words 1/4/8; and pruning
   never changes the verdict of a surviving fault *)
let prop_untestable_undetected =
  QCheck.Test.make ~name:"untestable => undetected (exhaustive, words 1/4/8)"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = random_circuit seed in
      let seg = comb_segment c in
      let w = Segment.input_count seg in
      QCheck.assume (w > 0 && w <= 10);
      let faults = Fault.collapse c (Fault.of_segment c seg) in
      let cls = Untestable.classify (Untestable.ctx c) seg faults in
      let patterns = Pattern_oracle.exhaustive_patterns ~width:w in
      let sim = Simulator.create c in
      let oracle = Fault_sim.segment_detects sim seg ~patterns faults in
      let detected f = List.assoc f oracle in
      let sound =
        List.for_all (fun (f, _) -> not (detected f)) cls.Untestable.untestable
      in
      let engine = Fault_engine.create sim seg in
      let batch_agrees =
        List.for_all
          (fun words ->
            let policy = Batch.policy ~words ~drop:Batch.Keep ~cutover:1 () in
            let patterns = Batch.Exhaustive in
            let all = Batch.run engine policy ~patterns faults in
            let surv =
              Batch.run engine policy ~patterns cls.Untestable.testable
            in
            (* no pruned fault detects, and every surviving fault keeps
               the exact verdict it had in the unpruned run *)
            List.for_all
              (fun (f, d) ->
                if List.mem_assoc f cls.Untestable.untestable then not d
                else List.assoc f surv.Batch.results = d)
              all.Batch.results)
          [ 1; 4; 8 ]
      in
      sound && batch_agrees)

(* the fixpoints are schedule-independent: any pool size produces the
   same arrays as the serial path *)
let prop_parallel_solve_deterministic =
  QCheck.Test.make ~name:"pooled solve = serial solve" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = random_circuit seed in
      let sched = sched_of c in
      let constants = Ternary.constants sched c in
      let init = Ternary.initializable sched c ~constants in
      let s = Scoap.compute sched c ~constants in
      List.for_all
        (fun jobs ->
          Domain_pool.with_pool ~jobs (fun pool ->
              let constants' = Ternary.constants ~pool sched c in
              let init' =
                Ternary.initializable ~pool sched c ~constants:constants'
              in
              let s' = Scoap.compute ~pool sched c ~constants:constants' in
              constants' = constants && init' = init
              && s'.Scoap.cc0 = s.Scoap.cc0
              && s'.Scoap.cc1 = s.Scoap.cc1
              && s'.Scoap.co = s.Scoap.co))
        [ 2; 4 ])

(* ternary constants are sound against the simulator: on circuits with
   no flip-flops, a node proven constant evaluates to that constant on
   every exhaustive input assignment *)
let prop_constants_sound_combinational =
  QCheck.Test.make ~name:"proven constants hold exhaustively (comb)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Ppet_digraph.Prng.create (Int64.of_int (seed + 3)) in
      let c =
        Generator.small_random
          ~seed:(Int64.of_int ((seed * 11) + 2))
          ~n_pi:(2 + Ppet_digraph.Prng.int rng 3)
          ~n_dff:0
          ~n_gates:(4 + Ppet_digraph.Prng.int rng 10)
      in
      let seg = comb_segment c in
      let w = Segment.input_count seg in
      QCheck.assume (w > 0 && w <= 10);
      let constants = Ternary.constants (sched_of c) c in
      let members = seg.Segment.members in
      let constant_members =
        Array.to_list members
        |> List.filter (fun v -> constants.(v) <> Ternary.unknown)
      in
      QCheck.assume (constant_members <> []);
      (* a constant-c node's stuck-at-c fault is invisible: simulate it
         and demand no detection at any observed point. The converse
         fault (stuck at the complement) flips the node on every
         pattern, which segment_detects confirms whenever the node can
         reach an observation point. *)
      let faults =
        List.map
          (fun v ->
            { Fault.site = Fault.Output v;
              stuck_at = constants.(v) = Ternary.one })
          constant_members
      in
      let patterns = Pattern_oracle.exhaustive_patterns ~width:w in
      let sim = Simulator.create c in
      Fault_sim.segment_detects sim seg ~patterns faults
      |> List.for_all (fun (_, d) -> not d))

(* ------------------------------------------------------------------ *)
(* the constant solve is monotone                                      *)

exception Changed_twice of int

(* Ternary.constants with a counting wrapper around the transfer: a
   vertex may climb from Unknown to a constant once and never move
   again. A second change raises at once, so a non-monotone transfer
   fails the test instead of spinning in the worklist. Returns the
   fixpoint, for comparison with Ternary.constants. *)
let constants_changing_once c =
  let sched = sched_of c in
  let r = Ternary.roots c in
  let last = Array.make (Circuit.size c) Ternary.unknown in
  let changed = Array.make (Circuit.size c) false in
  let transfer get v =
    let x = Ternary.eval c r get v in
    if x <> last.(v) then begin
      if changed.(v) then raise (Changed_twice v);
      changed.(v) <- true;
      last.(v) <- x
    end;
    x
  in
  let fix =
    Dataflow.solve sched ~direction:Dataflow.Forward
      ~init:(fun _ -> Ternary.unknown)
      ~transfer ~equal:Int.equal
  in
  Alcotest.(check bool) "same fixpoint as Ternary.constants" true
    (fix = Ternary.constants sched c)

(* the circuits whose solve never returned while the transfer read each
   pin's own value: three generator seeds of s641, the default
   s15850.1, and the smallest such loop — g = AND(x, NOT x) settles to 0
   while both pins are Unknown, the flip-flop carries the 0 round to x,
   and a g that saw x = 1 before NOT x caught up fell back to Unknown *)
let test_constants_change_once () =
  let s641 = (Benchmarks.find "s641").Benchmarks.profile in
  let loop =
    Parser.parse_string
      "INPUT(a)\nOUTPUT(o)\ng = AND(x, nx)\nnx = NOT(x)\nx = NOT(q)\n\
       q = DFF(g)\no = AND(a, g)\n"
  in
  List.iter
    (fun (name, c) ->
      try constants_changing_once c
      with Changed_twice v ->
        Alcotest.failf "%s: vertex %d changed twice" name v)
    ([ ("flip-flop loop", loop) ]
    @ List.map
        (fun seed ->
          (Printf.sprintf "s641 seed %Ld" seed, Generator.generate ~seed s641))
        [ 441610976L; 851735561L; 691587052L ]
    @ [ ("s15850.1", Benchmarks.circuit "s15850.1") ])

let prop_constants_change_once =
  QCheck.Test.make ~name:"constants: each vertex changes at most once"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Ppet_digraph.Prng.create (Int64.of_int ((seed * 5) + 3)) in
      let c =
        Generator.small_random
          ~seed:(Int64.of_int ((seed * 11) + 7))
          ~n_pi:(1 + Ppet_digraph.Prng.int rng 6)
          ~n_dff:(Ppet_digraph.Prng.int rng 12)
          ~n_gates:(4 + Ppet_digraph.Prng.int rng 200)
      in
      match constants_changing_once c with
      | () -> true
      | exception Changed_twice _ -> false)

(* condensation sanity on random circuits: component count, level
   bounds, and the defining property that a vertex's forward level is
   strictly above every predecessor in a different component *)
let prop_schedule_wellformed =
  QCheck.Test.make ~name:"condensation levels respect edges" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = random_circuit seed in
      let g = To_graph.partition_view c in
      let csr = Csr.of_netgraph g in
      let sched = Dataflow.prepare csr in
      let n = Circuit.size c in
      let ok =
        ref
          (Dataflow.n_components sched <= max 1 n
          && Dataflow.n_levels sched Dataflow.Forward
             <= Dataflow.n_components sched
          && Dataflow.max_component sched >= 1)
      in
      for v = 0 to n - 1 do
        let nd = Circuit.node c v in
        Array.iter
          (fun f ->
            (* Tarjan numbering: a cross-component edge goes from the
               higher component id to the lower (reverse topological) *)
            let cf = Dataflow.component_of sched f
            and cv = Dataflow.component_of sched v in
            if cf <> cv then ok := !ok && cf > cv)
          nd.Circuit.fanins
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "fixture: tied constant cone" `Quick
      test_fixture_tied_constant;
    Alcotest.test_case "fixture: unobservable gate" `Quick
      test_fixture_unobservable;
    Alcotest.test_case "fixture: X-dominated DFF" `Quick test_fixture_x_dff;
    Alcotest.test_case "fixture: boundary roots independent" `Quick
      test_fixture_boundary_roots_stay_independent;
    Alcotest.test_case "scoap basics" `Quick test_scoap_basics;
    QCheck_alcotest.to_alcotest prop_untestable_undetected;
    QCheck_alcotest.to_alcotest prop_parallel_solve_deterministic;
    QCheck_alcotest.to_alcotest prop_constants_sound_combinational;
    QCheck_alcotest.to_alcotest prop_schedule_wellformed;
    Alcotest.test_case "constants: one change per vertex on paper circuits"
      `Quick test_constants_change_once;
    QCheck_alcotest.to_alcotest prop_constants_change_once;
  ]
