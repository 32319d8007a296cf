(* The campaign runner: deterministic reports (bytes and all), identical
   at any job count, with the coverage gate and the JSON schema pinned. *)

module Circuit = Ppet_netlist.Circuit
module Campaign = Ppet_core.Campaign
module Params = Ppet_core.Params
module Domain_pool = Ppet_parallel.Domain_pool

let plan profiles =
  { Campaign.default_plan with Campaign.profiles }

(* the s27 report is small enough to pin byte for byte — the one
   tested segment has iota 7, all 34 collapsed faults detectable *)
let test_human_golden_s27 () =
  let report = Campaign.run (plan [ "s27" ]) in
  let expected =
    String.concat "\n"
      [
        "campaign: 1 circuits, words 8, drop on, max width 16, prune on";
        "circuit       gates  dffs  segs  tested   faults  pruned  detected  coverage   aliasing  test-cycles";
        "s27              10     3     1       1       34       0        34   100.00%   7.81e-03           24";
        "total: 34/34 faults detected (0 untestable pruned; coverage 100.00% \
         of testable, 100.00% raw), 1 segments tested, 0 skipped";
        "";
      ]
  in
  Alcotest.(check string) "human bytes" expected (Campaign.human report)

let test_deterministic_and_jobs_independent () =
  let p = plan [ "s27"; "s510"; "s420.1" ] in
  let serial = Campaign.run p in
  let again = Campaign.run p in
  Alcotest.(check string) "rerun json"
    (Campaign.to_json ~normalise:true serial)
    (Campaign.to_json ~normalise:true again);
  List.iter
    (fun jobs ->
      let pooled = Domain_pool.with_pool ~jobs (fun pool -> Campaign.run ~pool p) in
      Alcotest.(check string)
        (Printf.sprintf "jobs %d json" jobs)
        (Campaign.to_json ~normalise:true serial)
        (Campaign.to_json ~normalise:true pooled);
      Alcotest.(check string)
        (Printf.sprintf "jobs %d human" jobs)
        (Campaign.human serial) (Campaign.human pooled))
    [ 2; 3 ]

let test_json_schema () =
  let report = Campaign.run (plan [ "s27" ]) in
  let norm = Campaign.to_json ~normalise:true report in
  let has needle =
    let nl = String.length needle and l = String.length norm in
    let rec go i = i + nl <= l && (String.sub norm i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "campaign name" true (has "\"name\": \"campaign\"");
  Alcotest.(check bool) "circuits array" true (has "\"circuits\": [");
  Alcotest.(check bool) "s27 entry" true (has "\"name\": \"s27\"");
  Alcotest.(check bool) "prune knob" true (has "\"prune\": true");
  Alcotest.(check bool) "untestable field" true (has "\"untestable\": 0");
  Alcotest.(check bool) "testable field" true (has "\"testable\": 34");
  Alcotest.(check bool) "raw coverage field" true (has "\"coverage_raw\": 1");
  Alcotest.(check bool) "normalised wall" true (has "\"wall_ns\": 0 }");
  (* the live report carries real wall clocks, so the bytes differ *)
  Alcotest.(check bool) "normalise does something" true
    (norm <> Campaign.to_json report)

let test_below_min_gate () =
  (* s420.1's one tested segment holds undetectable faults: testable
     coverage about 96% even after pruning, so a 99% gate flags it and
     s27 passes *)
  let p = { (plan [ "s27"; "s420.1" ]) with Campaign.min_coverage = 0.99 } in
  let report = Campaign.run p in
  (match Campaign.below_min p report with
   | [ cr ] ->
     Alcotest.(check string) "the failing circuit" "s420.1" cr.Campaign.circuit;
     Alcotest.(check bool) "below" true (cr.Campaign.coverage < 0.99)
   | l -> Alcotest.failf "expected 1 failing circuit, got %d" (List.length l));
  let ungated = { p with Campaign.min_coverage = 0.0 } in
  Alcotest.(check int) "gate off" 0
    (List.length (Campaign.below_min ungated (Campaign.run ungated)))

let test_unknown_profile_rejected () =
  Alcotest.(check bool) "raises Circuit.Error" true
    (try
       Campaign.validate_profiles [ "s27"; "nope" ];
       false
     with Circuit.Error _ -> true)

let test_bad_knobs_rejected () =
  let bad p = try ignore (Campaign.run p); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "words 0" true
    (bad { (plan [ "s27" ]) with Campaign.words = 0 });
  Alcotest.(check bool) "empty profiles" true (bad (plan []));
  Alcotest.(check bool) "min_coverage 2" true
    (bad { (plan [ "s27" ]) with Campaign.min_coverage = 2.0 });
  Alcotest.(check bool) "max_width 30" true
    (bad { (plan [ "s27" ]) with Campaign.max_width = 30 })

(* the acceptance invariant of the pruning pre-pass: the detected-fault
   count is bit-identical with pruning on and off (pruned faults are
   provably undetectable, and verdicts are per-fault), only the
   denominator moves *)
let test_prune_identical_detected () =
  let p = plan [ "s27"; "s420.1"; "s641" ] in
  let pruned = Campaign.run { p with Campaign.prune = true } in
  let raw = Campaign.run { p with Campaign.prune = false } in
  List.iter2
    (fun (a : Campaign.circuit_report) (b : Campaign.circuit_report) ->
      Alcotest.(check int) "detected" b.Campaign.n_detected a.Campaign.n_detected;
      Alcotest.(check int) "faults" b.Campaign.n_faults a.Campaign.n_faults;
      Alcotest.(check int) "unpruned count" 0 b.Campaign.n_untestable;
      Alcotest.(check (float 1e-9)) "raw coverage agrees"
        b.Campaign.coverage_raw a.Campaign.coverage_raw;
      Alcotest.(check bool) "testable coverage never lower" true
        (a.Campaign.coverage >= b.Campaign.coverage))
    pruned.Campaign.circuits raw.Campaign.circuits;
  (* s420.1 is the interesting one: its tested segment carries
     statically-untestable faults, so pruning must actually fire *)
  let s4201 = List.nth pruned.Campaign.circuits 1 in
  Alcotest.(check bool) "nonzero prune" true (s4201.Campaign.n_untestable > 0)

let test_drop_keep_same_report () =
  let keep = Campaign.run { (plan [ "s27"; "s510" ]) with Campaign.drop = false } in
  let drop = Campaign.run { (plan [ "s27"; "s510" ]) with Campaign.drop = true } in
  List.iter2
    (fun (k : Campaign.circuit_report) (d : Campaign.circuit_report) ->
      Alcotest.(check int) "detected" k.Campaign.n_detected d.Campaign.n_detected;
      Alcotest.(check bool) "drop works no harder" true
        (d.Campaign.word_evals <= k.Campaign.word_evals))
    keep.Campaign.circuits drop.Campaign.circuits

let suite =
  [
    Alcotest.test_case "s27 human report golden" `Quick test_human_golden_s27;
    Alcotest.test_case "deterministic and jobs-independent" `Quick
      test_deterministic_and_jobs_independent;
    Alcotest.test_case "normalised JSON schema" `Quick test_json_schema;
    Alcotest.test_case "coverage gate" `Quick test_below_min_gate;
    Alcotest.test_case "unknown profile rejected" `Quick
      test_unknown_profile_rejected;
    Alcotest.test_case "bad knobs rejected" `Quick test_bad_knobs_rejected;
    Alcotest.test_case "prune = raw detected sets" `Quick
      test_prune_identical_detected;
    Alcotest.test_case "drop = keep verdicts" `Quick test_drop_keep_same_report;
  ]
