module Circuit = Ppet_netlist.Circuit
module Fault = Ppet_bist.Fault
module Params = Ppet_core.Params
module Merced = Ppet_core.Merced
module Testable = Ppet_core.Testable
module Session = Ppet_core.Session
module S27 = Ppet_netlist.S27

let s27_testable =
  lazy (Testable.insert (Merced.run ~params:(Params.with_lk 3) (S27.circuit ())))

let test_full_coverage_s27 () =
  let t = Lazy.force s27_testable in
  let rep = Session.run ~max_burst:4096 t in
  Alcotest.(check bool) "faults exist" true (rep.Session.n_faults > 0);
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 rep.Session.coverage;
  Alcotest.(check (list string)) "nothing undetected" []
    (List.map (Fault.describe (S27.circuit ())) rep.Session.undetected)

let test_deterministic () =
  let t = Lazy.force s27_testable in
  let a = Session.run ~max_burst:256 t in
  let b = Session.run ~max_burst:256 t in
  Alcotest.(check int) "same detections" a.Session.n_detected b.Session.n_detected

let test_more_burst_never_hurts () =
  let t = Lazy.force s27_testable in
  let short = Session.run ~max_burst:8 t in
  let long = Session.run ~max_burst:512 t in
  Alcotest.(check bool) "monotone" true
    (long.Session.n_detected >= short.Session.n_detected)

let test_custom_fault_list () =
  let t = Lazy.force s27_testable in
  let c = S27.circuit () in
  let g8 = Circuit.find c "G8" in
  let faults =
    [ { Fault.site = Fault.Output g8; stuck_at = true };
      { Fault.site = Fault.Output g8; stuck_at = false } ]
  in
  let rep = Session.run ~max_burst:512 ~faults t in
  Alcotest.(check int) "two faults" 2 rep.Session.n_faults;
  Alcotest.(check int) "both detected" 2 rep.Session.n_detected

let test_without_po_observer () =
  (* CBIT signatures alone still catch most faults; the PO observer covers
     the output cones *)
  let t = Lazy.force s27_testable in
  let with_po = Session.run ~max_burst:1024 t in
  let without = Session.run ~max_burst:1024 ~observe_pos:false t in
  Alcotest.(check bool) "po observer helps or equals" true
    (with_po.Session.n_detected >= without.Session.n_detected)

let test_truncation_flag () =
  let c = Ppet_netlist.Benchmarks.circuit "s641" in
  let t = Testable.insert (Merced.run ~params:(Params.with_lk 16) c) in
  let rep = Session.run ~max_burst:64 t in
  (* widest CBIT is 13+ bits: 64 cycles is truncated *)
  Alcotest.(check bool) "truncated" true rep.Session.truncated

let test_bad_fault_site () =
  let t = Lazy.force s27_testable in
  (* a fault site naming a node id beyond the original circuit *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Session.run
            ~faults:[ { Fault.site = Fault.Output 9999; stuck_at = true } ]
            t);
       false
     with Invalid_argument _ -> true)

(* Faults the static classifier proves undetectable must stay
   undetected by the whole-chip session: the good machine and every
   faulty lane see the same stimulus, so a lane's signature moves only
   if its fault does. On s510 at l_k 12 that is 126 faults, over every
   Merced segment. (s641 still shows a few such detections: the
   testable netlist reroutes same-partition readers of a celled driver
   through the cell's mux, so a segment's exhaustive model and the
   emitted hardware disagree there.) *)
let test_untestable_stay_undetected () =
  let c = Ppet_netlist.Benchmarks.circuit "s510" in
  let r = Merced.run ~params:(Params.with_lk 12) c in
  let uctx = Ppet_analysis.Untestable.ctx c in
  let faults =
    List.concat_map
      (fun seg ->
        let faults = Fault.collapse c (Fault.of_segment c seg) in
        List.map fst
          (Ppet_analysis.Untestable.classify uctx seg faults)
            .Ppet_analysis.Untestable.untestable)
      (Merced.segments r)
  in
  let rep = Session.run ~max_burst:128 ~faults (Testable.insert r) in
  Alcotest.(check bool) "untestable faults exist" true (rep.Session.n_faults > 0);
  Alcotest.(check (list string)) "none detected" []
    (List.filter_map
       (fun f ->
         if List.memq f rep.Session.undetected then None
         else Some (Fault.describe c f))
       faults)

let suite =
  [
    Alcotest.test_case "s27 full whole-chip coverage" `Quick test_full_coverage_s27;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "longer burst monotone" `Quick test_more_burst_never_hurts;
    Alcotest.test_case "custom fault list" `Quick test_custom_fault_list;
    Alcotest.test_case "PO observer contribution" `Quick test_without_po_observer;
    Alcotest.test_case "truncation flagged" `Slow test_truncation_flag;
    Alcotest.test_case "bad fault site rejected" `Quick test_bad_fault_site;
    Alcotest.test_case "proven-untestable faults stay undetected (s510)" `Quick
      test_untestable_stay_undetected;
  ]
