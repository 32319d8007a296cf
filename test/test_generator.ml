module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module Stats = Ppet_netlist.Stats
module Generator = Ppet_netlist.Generator
module Benchmarks = Ppet_netlist.Benchmarks
module To_graph = Ppet_netlist.To_graph
module Components = Ppet_digraph.Components
module Csr = Ppet_digraph.Csr
module Scc_budget = Ppet_retiming.Scc_budget

let profile name n_pi n_dff n_gates n_inv dff_on_scc area =
  {
    Generator.name;
    n_pi;
    n_dff;
    n_gates;
    n_inv;
    dff_on_scc;
    area_target = area;
  }

let test_exact_counts () =
  let c = Generator.generate (profile "t1" 10 8 120 30 4 None) in
  let s = Stats.of_circuit c in
  Alcotest.(check int) "pis" 10 s.Stats.n_pi;
  Alcotest.(check int) "dffs" 8 s.Stats.n_dff;
  Alcotest.(check int) "gates" 120 s.Stats.n_gates;
  Alcotest.(check int) "invs" 30 s.Stats.n_inv

let test_deterministic () =
  let p = profile "t2" 6 4 60 10 2 None in
  let a = Ppet_netlist.Bench_writer.to_string (Generator.generate ~seed:9L p) in
  let b = Ppet_netlist.Bench_writer.to_string (Generator.generate ~seed:9L p) in
  Alcotest.(check string) "same output" a b;
  let c = Ppet_netlist.Bench_writer.to_string (Generator.generate ~seed:10L p) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_dff_on_scc_exact () =
  let c = Generator.generate (profile "t3" 8 20 200 40 12 None) in
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  Alcotest.(check int) "dffs on scc" 12 (Scc_budget.dffs_on_scc sb)

let test_no_scc_when_zero () =
  let c = Generator.generate (profile "t4" 8 10 150 30 0 None) in
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  Alcotest.(check int) "feed-forward only" 0 (Scc_budget.dffs_on_scc sb)

let test_all_on_scc () =
  let c = Generator.generate (profile "t5" 4 15 150 30 15 None) in
  let g = To_graph.partition_view c in
  let sb = Scc_budget.create c g in
  Alcotest.(check int) "all looping" 15 (Scc_budget.dffs_on_scc sb)

let test_area_tracking () =
  let target = 1200.0 in
  let c = Generator.generate (profile "t6" 10 10 200 50 5 (Some target)) in
  let err = abs_float (Circuit.area c -. target) /. target in
  Alcotest.(check bool) "within 5%" true (err < 0.05)

let test_connected () =
  let c = Generator.generate (profile "t7" 12 10 300 60 5 None) in
  let csr = Csr.of_netgraph (To_graph.partition_view c) in
  let pieces =
    Components.restrict_csr csr (Csr.workspace csr)
      ~vertices:(Array.init (Csr.n_nodes csr) Fun.id)
      ~keep:(fun _ -> true)
  in
  Alcotest.(check int) "one weak component" 1 (Array.length pieces)

let test_every_pi_read () =
  let c = Generator.generate (profile "t8" 20 10 300 60 5 None) in
  Array.iter
    (fun pi ->
      Alcotest.(check bool)
        ((Circuit.node c pi).Circuit.name ^ " read")
        true
        (Array.length c.Circuit.fanouts.(pi) > 0))
    c.Circuit.inputs

let test_rejects_bad_profiles () =
  Alcotest.(check bool) "dff_on_scc too large" true
    (try
       ignore (Generator.generate (profile "bad" 2 3 10 2 5 None));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "no sources" true
    (try
       ignore (Generator.generate (profile "bad2" 0 0 10 2 0 None));
       false
     with Invalid_argument _ -> true)

let test_has_outputs () =
  let c = Generator.generate (profile "t9" 5 5 80 10 2 None) in
  Alcotest.(check bool) "some POs" true (Array.length c.Circuit.outputs > 0)

let test_benchmark_registry_counts () =
  Alcotest.(check int) "seventeen entries" 17 (List.length Benchmarks.all);
  let e = Benchmarks.find "s5378" in
  Alcotest.(check int) "pis" 35 e.Benchmarks.profile.Generator.n_pi;
  Alcotest.(check int) "dffs" 179 e.Benchmarks.profile.Generator.n_dff;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Benchmarks.find "s9999");
       false
     with Not_found -> true)

let test_benchmark_matches_table9 () =
  (* every registry circuit reproduces its published statistics *)
  List.iter
    (fun name ->
      let e = Benchmarks.find name in
      let c = Benchmarks.circuit name in
      let s = Stats.of_circuit c in
      let p = e.Benchmarks.profile in
      Alcotest.(check int) (name ^ " pis") p.Generator.n_pi s.Stats.n_pi;
      Alcotest.(check int) (name ^ " dffs") p.Generator.n_dff s.Stats.n_dff;
      Alcotest.(check int) (name ^ " gates") p.Generator.n_gates s.Stats.n_gates;
      Alcotest.(check int) (name ^ " invs") p.Generator.n_inv s.Stats.n_inv;
      let err =
        abs_float (s.Stats.area -. e.Benchmarks.paper_area)
        /. e.Benchmarks.paper_area
      in
      Alcotest.(check bool) (name ^ " area within 3%") true (err < 0.03))
    Benchmarks.small

let test_benchmark_caching () =
  let a = Benchmarks.circuit "s510" and b = Benchmarks.circuit "s510" in
  Alcotest.(check bool) "cached (physically equal)" true (a == b)

let test_stats_row_format () =
  let s = Stats.of_circuit (Ppet_netlist.S27.circuit ()) in
  Alcotest.(check bool) "row mentions title" true
    (String.length (Stats.row s) > 10);
  Alcotest.(check bool) "header nonempty" true (String.length Stats.header > 10)

let prop_generated_valid =
  QCheck.Test.make ~name:"random profiles produce valid circuits" ~count:25
    QCheck.(quad (int_range 1 12) (int_bound 12) (int_range 5 80) (int_bound 20))
    (fun (n_pi, n_dff, n_gates, n_inv) ->
      let c =
        Generator.generate
          (profile
             (Printf.sprintf "q%d-%d-%d-%d" n_pi n_dff n_gates n_inv)
             n_pi n_dff n_gates n_inv (n_dff / 2) None)
      in
      let s = Stats.of_circuit c in
      s.Stats.n_pi = n_pi && s.Stats.n_dff = n_dff
      && s.Stats.n_gates = n_gates && s.Stats.n_inv = n_inv)

let suite =
  [
    Alcotest.test_case "exact structural counts" `Quick test_exact_counts;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "dff_on_scc is exact" `Quick test_dff_on_scc_exact;
    Alcotest.test_case "zero feedback honoured" `Quick test_no_scc_when_zero;
    Alcotest.test_case "all-feedback honoured" `Quick test_all_on_scc;
    Alcotest.test_case "area tracking" `Quick test_area_tracking;
    Alcotest.test_case "connected result" `Quick test_connected;
    Alcotest.test_case "every PI consumed" `Quick test_every_pi_read;
    Alcotest.test_case "bad profiles rejected" `Quick test_rejects_bad_profiles;
    Alcotest.test_case "outputs exist" `Quick test_has_outputs;
    Alcotest.test_case "benchmark registry" `Quick test_benchmark_registry_counts;
    Alcotest.test_case "registry matches Table 9" `Slow test_benchmark_matches_table9;
    Alcotest.test_case "benchmark caching" `Quick test_benchmark_caching;
    Alcotest.test_case "stats formatting" `Quick test_stats_row_format;
    QCheck_alcotest.to_alcotest prop_generated_valid;
  ]
