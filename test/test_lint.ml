(* The lint subsystem: one crafted violation fixture per registry rule,
   plus the end-to-end properties the rules exist to witness — generator
   output, s27 and the registry benchmarks lint clean through the whole
   DFT flow, and the certificate checker agrees with the solver. *)

module Circuit = Ppet_netlist.Circuit
module Generator = Ppet_netlist.Generator
module Benchmarks = Ppet_netlist.Benchmarks
module S27 = Ppet_netlist.S27
module Params = Ppet_core.Params
module Merced = Ppet_core.Merced
module Assign = Ppet_core.Assign
module Testable = Ppet_core.Testable
module Retime = Ppet_retiming.Retime
module Rgraph = Ppet_retiming.Rgraph
module Diag = Ppet_lint.Diag
module Registry = Ppet_lint.Registry
module Engine = Ppet_lint.Engine
module Dft_rules = Ppet_lint.Dft_rules

let fired id diags = List.exists (fun (d : Diag.t) -> d.Diag.rule = id) diags

let check_fires id diags =
  Alcotest.(check bool)
    (Printf.sprintf "rule %s fires" id)
    true (fired id diags)

let lint_text src = (Engine.run_text ~title:"fixture" src).Engine.diags

(* one compiled s27 at the paper's worked-example constraint, shared by
   every DFT fixture *)
let compiled =
  lazy
    (let r = Merced.run ~params:(Params.with_lk 3) (S27.circuit ()) in
     (r, Testable.insert r))

(* ---------------- structural fixtures, one per rule ---------------- *)

let test_fixture_syntax () =
  check_fires "syntax" (lint_text "INPUT(a)\n@@\nOUTPUT(a)\n")

let test_fixture_multiple_drivers () =
  check_fires "multiple-drivers"
    (lint_text "INPUT(a)\nG = NOT(a)\nG = NOT(a)\nOUTPUT(G)\n")

let test_fixture_undriven_net () =
  check_fires "undriven-net" (lint_text "INPUT(a)\nG = AND(a, ghost)\nOUTPUT(G)\n")

let test_fixture_unknown_gate () =
  check_fires "unknown-gate" (lint_text "INPUT(a)\nG = FROB(a)\nOUTPUT(G)\n")

let test_fixture_bad_arity () =
  check_fires "bad-arity" (lint_text "INPUT(a)\nG = AND(a)\nOUTPUT(G)\n")

let test_fixture_comb_cycle () =
  check_fires "comb-cycle"
    (lint_text "INPUT(x)\na = AND(b, x)\nb = AND(a, x)\nOUTPUT(a)\n")

let test_fixture_no_state () = check_fires "no-state" (lint_text "")

let test_fixture_duplicate_output () =
  check_fires "duplicate-output"
    (lint_text "INPUT(a)\nG = NOT(a)\nOUTPUT(G)\nOUTPUT(G)\n")

let test_fixture_dead_logic () =
  let diags =
    lint_text "INPUT(a)\nG = NOT(a)\nDEAD = NOT(a)\nOUTPUT(G)\n"
  in
  check_fires "dead-logic" diags;
  (* advisory: dead logic alone must not make the report a finding *)
  Alcotest.(check int) "no findings" 0
    (List.length (List.filter Diag.is_finding diags))

let test_fixture_unread_input () =
  check_fires "unread-input"
    (lint_text "INPUT(a)\nINPUT(b)\nG = NOT(a)\nOUTPUT(G)\n")

(* ---------------- analysis fixtures, one per rule ------------------ *)

let test_fixture_stuck_net () =
  (* a AND NOT(a) is a proven constant zero *)
  check_fires "stuck-net"
    (lint_text "INPUT(a)\nna = NOT(a)\nz = AND(a, na)\nOUTPUT(z)\n")

let test_fixture_x_state () =
  (* q's only fan-in is its own inverted feedback: no initializing path *)
  check_fires "x-state"
    (lint_text
       "INPUT(a)\nq = DFF(nq)\nnq = NOT(q)\no = AND(a, q)\nOUTPUT(o)\n")

let test_fixture_unobservable_net () =
  (* the tied-zero side pin of o masks b from the only output *)
  let diags =
    lint_text
      "INPUT(a)\nINPUT(b)\nna = NOT(a)\nz = AND(a, na)\no = AND(b, z)\n\
       OUTPUT(o)\n"
  in
  check_fires "unobservable-net" diags;
  (* advisory family: none of these may count as findings *)
  Alcotest.(check int) "no findings" 0
    (List.length (List.filter Diag.is_finding diags))

(* ------------------ DFT fixtures, one per rule --------------------- *)

let test_fixture_input_bound () =
  let r, _ = Lazy.force compiled in
  let corrupted =
    {
      r with
      Merced.assignment =
        {
          r.Merced.assignment with
          Assign.partitions =
            List.map
              (fun (p : Assign.partition) ->
                { p with Assign.input_count = p.Assign.input_count + 1 })
              r.Merced.assignment.Assign.partitions;
        };
    }
  in
  check_fires "input-bound" (Dft_rules.input_bound corrupted)

let test_fixture_cell_placement () =
  let r, t = Lazy.force compiled in
  let cut = r.Merced.assignment.Assign.cut_nets in
  let non_cut =
    let rec first e = if List.mem e cut then first (e + 1) else e in
    first 0
  in
  let corrupted =
    {
      t with
      Testable.cells =
        (match t.Testable.cells with
         | c :: rest -> { c with Testable.net = non_cut } :: rest
         | [] -> []);
    }
  in
  check_fires "cell-placement" (Dft_rules.cell_placement r corrupted)

let test_fixture_scan_chain () =
  let r, t = Lazy.force compiled in
  (* reversing the chain order breaks every predecessor link *)
  let corrupted = { t with Testable.cells = List.rev t.Testable.cells } in
  check_fires "scan-chain" (Dft_rules.scan_chain r corrupted)

let test_fixture_cbit_width () =
  let r, t = Lazy.force compiled in
  let corrupted =
    {
      t with
      Testable.groups =
        (match t.Testable.groups with
         | g :: rest -> { g with Testable.width = g.Testable.width + 1 } :: rest
         | [] -> []);
    }
  in
  check_fires "cbit-width" (Dft_rules.cbit_width r corrupted)

let test_fixture_area_accounting () =
  let r, t = Lazy.force compiled in
  let b = r.Merced.breakdown in
  let corrupted =
    {
      r with
      Merced.breakdown =
        { b with Ppet_core.Area_accounting.cuts_total =
                   b.Ppet_core.Area_accounting.cuts_total + 1 };
    }
  in
  check_fires "area-accounting" (Dft_rules.area_accounting corrupted t);
  let inflated = { t with Testable.added_area = t.Testable.added_area +. 5.0 } in
  check_fires "area-accounting" (Dft_rules.area_accounting r inflated)

let test_fixture_scc_budget () =
  let r, _ = Lazy.force compiled in
  (* beta = 0 outlaws every cut on a loop; s27 at l_k 3 has three *)
  let corrupted =
    { r with Merced.params = { r.Merced.params with Params.beta = 0 } }
  in
  check_fires "scc-budget" (Dft_rules.scc_budget corrupted)

let test_fixture_retiming_legality () =
  let r, _ = Lazy.force compiled in
  (* a missing certificate is itself a finding *)
  check_fires "retiming-legality" (Dft_rules.retiming_legality r None);
  match Merced.retiming_certificate r with
  | None -> Alcotest.fail "s27 must have a certificate"
  | Some cert ->
    Alcotest.(check (list string)) "genuine certificate passes" []
      (List.map (fun (d : Diag.t) -> d.Diag.message)
         (Dft_rules.retiming_legality r (Some cert)));
    (* corrupt a pinned lag: the checker must refuse it independently *)
    let rho = Array.copy cert.Merced.cert_rho in
    let g = cert.Merced.cert_graph in
    let pi =
      let rec find v =
        match g.Rgraph.kinds.(v) with
        | Rgraph.Vpi _ -> v
        | _ -> find (v + 1)
      in
      find 0
    in
    rho.(pi) <- rho.(pi) + 1;
    check_fires "retiming-legality"
      (Dft_rules.retiming_legality r
         (Some { cert with Merced.cert_rho = rho }))

let test_fixture_exhaustive_width () =
  (* an 18-wide AND cannot be split under l_k 16, so its oversize
     segment lies past the default campaign width (the default l_k) *)
  let names = List.init 18 (fun i -> Printf.sprintf "a%d" i) in
  let src =
    String.concat ""
      (List.map (Printf.sprintf "INPUT(%s)\n") names)
    ^ Printf.sprintf "G = AND(%s)\n" (String.concat ", " names)
    ^ "q = DFF(G)\nOUTPUT(q)\n"
  in
  let c = Ppet_netlist.Bench_parser.parse_string ~title:"wide" src in
  let r = Merced.run ~params:(Params.with_lk 16) c in
  check_fires "exhaustive-width" (Dft_rules.exhaustive_width r)

(* --------------------- end-to-end properties ----------------------- *)

let clean_report name (rep : Engine.report) =
  Alcotest.(check bool) (name ^ " compiled") true rep.Engine.compiled;
  Alcotest.(check (list string))
    (name ^ " has no findings")
    []
    (List.map Diag.to_human (List.filter Diag.is_finding rep.Engine.diags))

let test_s27_clean () =
  clean_report "s27 lk=3"
    (Engine.run_circuit ~params:(Params.with_lk 3) (S27.circuit ()));
  clean_report "s27 default" (Engine.run_circuit (S27.circuit ()))

let test_registry_clean () =
  List.iter
    (fun name -> clean_report name (Engine.run_circuit (Benchmarks.circuit name)))
    [ "s510"; "s420.1" ]

let test_certificate_agrees_with_solver () =
  List.iter
    (fun c ->
      let r = Merced.run ~params:(Params.with_lk 6) c in
      match Merced.retiming_certificate r with
      | None -> Alcotest.fail (c.Circuit.title ^ ": no certificate")
      | Some cert ->
        Alcotest.(check bool)
          (c.Circuit.title ^ ": solver accepts the certificate")
          true
          (Retime.is_legal cert.Merced.cert_graph cert.Merced.cert_rho);
        Alcotest.(check (list string))
          (c.Circuit.title ^ ": checker accepts the certificate")
          []
          (List.map (fun (d : Diag.t) -> d.Diag.message)
             (Dft_rules.retiming_legality r (Some cert))))
    [ S27.circuit (); Benchmarks.circuit "s510" ]

let test_deterministic_output () =
  let run () =
    Engine.to_json (Engine.run_circuit ~params:(Params.with_lk 3) (S27.circuit ()))
  in
  Alcotest.(check string) "two runs byte-identical" (run ()) (run ());
  (* worker count must not change a report *)
  Ppet_parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let serial =
        Engine.run_text ~title:"t" "INPUT(a)\nG = NOT(a)\nOUTPUT(G)\n"
      and parallel =
        Engine.run_text ~pool ~title:"t" "INPUT(a)\nG = NOT(a)\nOUTPUT(G)\n"
      in
      Alcotest.(check string) "pooled run byte-identical"
        (Engine.to_json serial) (Engine.to_json parallel))

let test_registry_fixture_coverage () =
  (* every registry rule has a fixture above: keep this list in sync *)
  Alcotest.(check (list string))
    "registry ids"
    [ "syntax"; "multiple-drivers"; "undriven-net"; "unknown-gate";
      "bad-arity"; "comb-cycle"; "no-state"; "duplicate-output"; "dead-logic";
      "unread-input"; "stuck-net"; "x-state"; "unobservable-net";
      "input-bound"; "cell-placement"; "scan-chain"; "cbit-width";
      "area-accounting"; "scc-budget"; "retiming-legality";
      "exhaustive-width" ]
    Registry.ids

let prop_generated_circuits_lint_clean =
  QCheck.Test.make ~name:"generated circuits lint clean end to end" ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_range 4 10))
    (fun (seed, lk) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 11)) ~n_pi:3
          ~n_dff:3 ~n_gates:(8 + (seed mod 24))
      in
      let rep = Engine.run_circuit ~params:(Params.with_lk lk) c in
      rep.Engine.compiled && Engine.findings rep = 0)

let suite =
  [
    Alcotest.test_case "fixture: syntax" `Quick test_fixture_syntax;
    Alcotest.test_case "fixture: multiple-drivers" `Quick
      test_fixture_multiple_drivers;
    Alcotest.test_case "fixture: undriven-net" `Quick test_fixture_undriven_net;
    Alcotest.test_case "fixture: unknown-gate" `Quick test_fixture_unknown_gate;
    Alcotest.test_case "fixture: bad-arity" `Quick test_fixture_bad_arity;
    Alcotest.test_case "fixture: comb-cycle" `Quick test_fixture_comb_cycle;
    Alcotest.test_case "fixture: no-state" `Quick test_fixture_no_state;
    Alcotest.test_case "fixture: duplicate-output" `Quick
      test_fixture_duplicate_output;
    Alcotest.test_case "fixture: dead-logic" `Quick test_fixture_dead_logic;
    Alcotest.test_case "fixture: unread-input" `Quick test_fixture_unread_input;
    Alcotest.test_case "fixture: stuck-net" `Quick test_fixture_stuck_net;
    Alcotest.test_case "fixture: x-state" `Quick test_fixture_x_state;
    Alcotest.test_case "fixture: unobservable-net" `Quick
      test_fixture_unobservable_net;
    Alcotest.test_case "fixture: input-bound" `Quick test_fixture_input_bound;
    Alcotest.test_case "fixture: cell-placement" `Quick
      test_fixture_cell_placement;
    Alcotest.test_case "fixture: scan-chain" `Quick test_fixture_scan_chain;
    Alcotest.test_case "fixture: cbit-width" `Quick test_fixture_cbit_width;
    Alcotest.test_case "fixture: area-accounting" `Quick
      test_fixture_area_accounting;
    Alcotest.test_case "fixture: scc-budget" `Quick test_fixture_scc_budget;
    Alcotest.test_case "fixture: retiming-legality" `Quick
      test_fixture_retiming_legality;
    Alcotest.test_case "fixture: exhaustive-width" `Quick
      test_fixture_exhaustive_width;
    Alcotest.test_case "s27 lints clean" `Quick test_s27_clean;
    Alcotest.test_case "registry benchmarks lint clean" `Quick
      test_registry_clean;
    Alcotest.test_case "certificate agrees with the solver" `Quick
      test_certificate_agrees_with_solver;
    Alcotest.test_case "deterministic output" `Quick test_deterministic_output;
    Alcotest.test_case "fixture coverage" `Quick test_registry_fixture_coverage;
    QCheck_alcotest.to_alcotest prop_generated_circuits_lint_clean;
  ]
