module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Parser = Ppet_netlist.Bench_parser
module Generator = Ppet_netlist.Generator
module Equivalence = Ppet_core.Equivalence
module Seq_check = Ppet_check.Seq_check
module Merced = Ppet_core.Merced
module Params = Ppet_core.Params
module Testable = Ppet_core.Testable
module To_circuit = Ppet_retiming.To_circuit
module Rgraph = Ppet_retiming.Rgraph
module S27 = Ppet_netlist.S27

let test_self_equivalent () =
  let c = S27.circuit () in
  let v = Equivalence.check_bool c c in
  Alcotest.(check bool) "self" true v.Equivalence.equivalent;
  Alcotest.(check bool) "no mismatch" true (v.Equivalence.first_mismatch = None)

let test_detects_difference () =
  let a = Parser.parse_string "INPUT(x)\nOUTPUT(y)\ny = NOT(x)\n" in
  let b = Parser.parse_string "INPUT(x)\nOUTPUT(y)\ny = BUFF(x)\n" in
  let v = Equivalence.check_bool a b in
  Alcotest.(check bool) "different" false v.Equivalence.equivalent;
  (match v.Equivalence.first_mismatch with
   | Some (cycle, name) ->
     Alcotest.(check int) "first cycle" 0 cycle;
     Alcotest.(check string) "output named" "y" name
   | None -> Alcotest.fail "expected mismatch")

let test_detects_sequential_difference () =
  (* identical combinationally, divergent after one cycle *)
  let a = Parser.parse_string "INPUT(x)\nOUTPUT(y)\nq = DFF(x)\ny = BUFF(q)\n" in
  let b = Parser.parse_string "INPUT(x)\nOUTPUT(y)\nq = DFF(n)\nn = NOT(x)\ny = BUFF(q)\n" in
  let v = Equivalence.check_bool a b in
  Alcotest.(check bool) "different" false v.Equivalence.equivalent;
  (match v.Equivalence.first_mismatch with
   | Some (cycle, _) -> Alcotest.(check bool) "after a cycle" true (cycle >= 1)
   | None -> Alcotest.fail "expected mismatch")

let test_output_count_guard () =
  let a = Parser.parse_string "INPUT(x)\nOUTPUT(y)\ny = NOT(x)\n" in
  let b = Parser.parse_string "INPUT(x)\nOUTPUT(y)\nOUTPUT(x)\ny = NOT(x)\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Equivalence.check_bool a b);
       false
     with Invalid_argument _ -> true)

let test_testable_normal_mode () =
  (* the Testable insertion passes the checker with controls forced 0 *)
  let c = S27.circuit () in
  let t = Testable.insert (Merced.run ~params:(Params.with_lk 3) c) in
  let v =
    Equivalence.check_bool c t.Testable.circuit
      ~force_right:
        [ (t.Testable.test_en, false); (t.Testable.fb_en, false);
          (t.Testable.psa_en, false); (t.Testable.scan_in, false) ]
  in
  Alcotest.(check bool) "normal mode equivalent" true v.Equivalence.equivalent

(* the 3-valued checks run through Seq_check, the checker of merced
   check and the fuzzer: retimed registers may start unknown (X); these
   transformations shift no I/O latency, so none is allowed *)
let equivalent = function
  | Seq_check.Equivalent _ -> true
  | Seq_check.Inequivalent _ -> false

let test_emitted_roundtrip_3valued () =
  let c = S27.circuit () in
  let e = To_circuit.circuit_of (Rgraph.of_circuit c) in
  Alcotest.(check bool) "round trip compatible" true
    (equivalent
       (Seq_check.check ~max_latency:0 c e.To_circuit.circuit
          ~init_right:(To_circuit.init_fn e)))

let test_retimed_3valued () =
  let c = Ppet_netlist.Benchmarks.circuit "s641" in
  let r = Merced.run ~params:(Params.with_lk 16) c in
  match Merced.retimed_netlist r with
  | None -> Alcotest.fail "retiming failed"
  | Some (e, _) ->
    Alcotest.(check bool) "retimed netlist compatible" true
      (equivalent
         (Seq_check.check ~sequences:1 ~cycles:8 ~max_latency:0 c
            e.To_circuit.circuit ~init_right:(To_circuit.init_fn e)))

let prop_random_self_equivalence =
  QCheck.Test.make ~name:"every circuit is equivalent to itself" ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 3)) ~n_pi:4
          ~n_dff:4 ~n_gates:25
      in
      (Equivalence.check_bool c c).Equivalence.equivalent)

let suite =
  [
    Alcotest.test_case "self equivalence" `Quick test_self_equivalent;
    Alcotest.test_case "combinational difference found" `Quick test_detects_difference;
    Alcotest.test_case "sequential difference found" `Quick test_detects_sequential_difference;
    Alcotest.test_case "output count guard" `Quick test_output_count_guard;
    Alcotest.test_case "testable normal mode" `Quick test_testable_normal_mode;
    Alcotest.test_case "emission round trip (3-valued)" `Quick test_emitted_roundtrip_3valued;
    Alcotest.test_case "retimed netlist (3-valued)" `Slow test_retimed_3valued;
    QCheck_alcotest.to_alcotest prop_random_self_equivalence;
  ]
