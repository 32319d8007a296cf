(* Fault_sim is the seed oracle: the transparent re-simulation loop the
   batch engine is differentially tested against. Pattern construction
   and coverage live in Fault_engine now; these tests pin the oracle's
   own semantics (and the helpers) on hand-sized circuits. *)

module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Segment = Ppet_netlist.Segment
module Fault = Ppet_bist.Fault
module Fault_sim = Ppet_bist.Fault_sim
module Fault_engine = Ppet_bist.Fault_engine
module Simulator = Ppet_bist.Simulator
module Parser = Ppet_netlist.Bench_parser

let and_circuit () =
  Parser.parse_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"

let seg_of c names =
  Segment.of_members c (Array.of_list (List.map (Circuit.find c) names))

let exhaustive_patterns = Pattern_oracle.exhaustive_patterns

(* the engine's closed form on a hand-checkable width; the exhaustive
   comparison against the packed list is in test_fault_engine *)
let test_exhaustive_patterns_shape () =
  (* 8 vectors fit in one 62-bit batch *)
  Alcotest.(check int) "one batch" 1 (Fault_engine.exhaustive_batches ~width:3);
  let word i = Fault_engine.exhaustive_word ~width:3 ~batch:0 i in
  (* input 0 alternates 0101..., and nothing is set past vector 7 *)
  Alcotest.(check int) "bit column 0" 0b10101010 (word 0);
  Alcotest.(check int) "bit column 1" 0b11001100 (word 1);
  Alcotest.(check int) "bit column 2" 0b11110000 (word 2)

let test_exhaustive_patterns_multibatch () =
  (* 256 vectors over 62-bit words -> ceil(256/62) = 5 batches *)
  Alcotest.(check int) "batches" 5 (Fault_engine.exhaustive_batches ~width:8)

let test_and_gate_full_coverage () =
  let c = and_circuit () in
  let sim = Simulator.create c in
  let seg = seg_of c [ "y" ] in
  let faults = Fault.of_segment c seg in
  let patterns = exhaustive_patterns ~width:2 in
  let results = Fault_sim.segment_detects sim seg ~patterns faults in
  Alcotest.(check (float 1e-9)) "all detected" 1.0
    (Fault_engine.coverage results)

let test_single_pattern_partial () =
  let c = and_circuit () in
  let sim = Simulator.create c in
  let seg = seg_of c [ "y" ] in
  let faults = Fault.of_segment c seg in
  (* only pattern (1,1): detects s-a-0s but no s-a-1 *)
  let patterns = [ [| 1; 1 |] ] in
  let results = Fault_sim.segment_detects sim seg ~patterns faults in
  let detected = List.filter snd results in
  Alcotest.(check bool) "partial" true
    (List.length detected > 0 && List.length detected < List.length results)

let test_redundant_fault_undetected () =
  (* y = OR(a, NOT(a)) is constant 1: s-a-1 at y is redundant *)
  let c = Parser.parse_string "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n" in
  let sim = Simulator.create c in
  let seg = seg_of c [ "n"; "y" ] in
  let y = Circuit.find c "y" in
  let fault = { Fault.site = Fault.Output y; stuck_at = true } in
  let patterns = exhaustive_patterns ~width:1 in
  let results = Fault_sim.segment_detects sim seg ~patterns [ fault ] in
  Alcotest.(check bool) "redundant undetected" false (List.assoc fault results)

let test_pin_fault_vs_output_fault () =
  (* on a fanout-free path they behave identically *)
  let c = and_circuit () in
  let sim = Simulator.create c in
  let seg = seg_of c [ "y" ] in
  let y = Circuit.find c "y" in
  let pin = { Fault.site = Fault.Input_pin (y, 0); stuck_at = true } in
  let out = { Fault.site = Fault.Output (Circuit.find c "a"); stuck_at = true } in
  let patterns = exhaustive_patterns ~width:2 in
  let r = Fault_sim.segment_detects sim seg ~patterns [ pin; out ] in
  Alcotest.(check bool) "equivalent" true (List.assoc pin r = List.assoc out r)

let test_dff_member_rejected () =
  let c = Parser.parse_string "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n" in
  let sim = Simulator.create c in
  let seg = seg_of c [ "q" ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fault_sim.segment_detects sim seg ~patterns:[] []);
       false
     with Invalid_argument _ -> true)

let test_lfsr_patterns_cover () =
  (* LFSR patterns (plus all-zero) detect everything exhaustive does on
     the AND segment *)
  let c = and_circuit () in
  let sim = Simulator.create c in
  let seg = seg_of c [ "y" ] in
  let faults = Fault.of_segment c seg in
  let patterns = Fault_engine.lfsr_patterns ~width:2 ~count:4 in
  let results = Fault_sim.segment_detects sim seg ~patterns faults in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0
    (Fault_engine.coverage results)

let test_coverage_empty () =
  Alcotest.(check (float 1e-9)) "empty = 1.0" 1.0 (Fault_engine.coverage [])

let test_batch_arity_guard () =
  let c = and_circuit () in
  let sim = Simulator.create c in
  let seg = seg_of c [ "y" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Fault_sim.segment_detects: batch arity mismatch")
    (fun () ->
      ignore (Fault_sim.segment_detects sim seg ~patterns:[ [| 1 |] ] []))

let suite =
  [
    Alcotest.test_case "exhaustive pattern packing" `Quick test_exhaustive_patterns_shape;
    Alcotest.test_case "multi-batch packing" `Quick test_exhaustive_patterns_multibatch;
    Alcotest.test_case "AND gate full coverage" `Quick test_and_gate_full_coverage;
    Alcotest.test_case "single pattern partial coverage" `Quick test_single_pattern_partial;
    Alcotest.test_case "redundant fault undetected" `Quick test_redundant_fault_undetected;
    Alcotest.test_case "pin fault equals driver fault" `Quick test_pin_fault_vs_output_fault;
    Alcotest.test_case "DFF member rejected" `Quick test_dff_member_rejected;
    Alcotest.test_case "LFSR patterns cover" `Quick test_lfsr_patterns_cover;
    Alcotest.test_case "empty coverage" `Quick test_coverage_empty;
    Alcotest.test_case "batch arity guard" `Quick test_batch_arity_guard;
  ]
