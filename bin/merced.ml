(* Merced — the BIST compiler of the paper (Table 2), as a command-line
   tool. Subcommands: stats, partition, generate, selftest, analyze,
   insert, retime, dot, sweep, check, fuzz, lint, bench, campaign,
   serve, submit.

   Exit-code contract (every subcommand): 0 = success with no findings,
   1 = the tool worked and found something (lint diagnostics, check
   failures, fuzz violations), 2 = usage error or internal failure. *)

module Circuit = Ppet_netlist.Circuit
module Stats = Ppet_netlist.Stats
module Bench_parser = Ppet_netlist.Bench_parser
module Bench_writer = Ppet_netlist.Bench_writer
module Benchmarks = Ppet_netlist.Benchmarks
module Params = Ppet_core.Params
module Merced = Ppet_core.Merced
module Report = Ppet_core.Report
module Assign = Ppet_core.Assign
module Check_error = Ppet_check.Error
module Seq_check = Ppet_check.Seq_check
module Fuzz = Ppet_check.Fuzz
module Lint_engine = Ppet_lint.Engine
module Lint_registry = Ppet_lint.Registry
module Diag = Ppet_lint.Diag
module Obs = Ppet_obs.Obs
module Obs_export = Ppet_obs.Export
module Bench_runner = Ppet_core.Bench_runner
module Campaign = Ppet_core.Campaign
module Serve_ops = Ppet_serve.Ops
module Sjson = Ppet_serve.Json

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared argument parsing                                             *)

(* spec resolution lives in Ppet_serve.Ops so the daemon and the CLI
   agree on it (and on the error text) by construction *)
let load_circuit = Serve_ops.load_circuit

let circuit_arg =
  let doc =
    "Circuit to process: a .bench or .v (structural Verilog) file path, \
     \"s27\", or an ISCAS89 benchmark name (synthesized to the published \
     profile), e.g. s5378."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let lk_arg =
  let doc = "Input constraint / CBIT length l_k (paper uses 16 and 24)." in
  Arg.(value & opt int 16 & info [ "l"; "lk" ] ~docv:"LK" ~doc)

let beta_arg =
  let doc = "Loop cut relaxation factor beta of Eq. 6 (paper uses 50)." in
  Arg.(value & opt int 50 & info [ "beta" ] ~docv:"BETA" ~doc)

let seed_arg =
  let doc = "Random seed for the flow injection." in
  Arg.(value & opt int 0x4DAC & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Shard fault simulation across $(docv) parallel domains (default 1 = \
     serial). Results are bit-identical at any job count; only the wall \
     clock changes."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Every subcommand taking --jobs validates through this, so a
   nonsensical value is the same usage error (exit 2) with the same
   message everywhere instead of whatever the first consumer of the
   value happens to raise. *)
let max_jobs = 512

let validate_jobs jobs =
  if jobs < 1 || jobs > max_jobs then
    raise
      (Circuit.Error
         (Printf.sprintf "--jobs must be in 1..%d, got %d" max_jobs jobs))

(* run [f] with the pool a --jobs value asks for: none for the serial
   default, a shared domain pool otherwise *)
let with_jobs jobs f =
  validate_jobs jobs;
  if jobs = 1 then f None
  else Ppet_parallel.Domain_pool.with_pool ~jobs (fun p -> f (Some p))

(* write in the format the file extension asks for *)
let write_circuit path c =
  if Filename.check_suffix path ".v" then Ppet_netlist.Verilog.to_file path c
  else Bench_writer.to_file path c

let params_of ?(partitioner = Params.Flow) lk beta seed =
  { Params.default with
    Params.l_k = lk; beta; seed = Int64.of_int seed; partitioner }

let partitioner_arg =
  let doc =
    "Partitioning algorithm: $(b,flow) (the paper's saturation flow \
     pipeline, the default), or a baseline for comparison — $(b,fm) \
     (Fiduccia–Mattheyses), $(b,annealing), $(b,random). Baselines \
     ignore --lock."
  in
  Arg.(value
       & opt
           (enum
              [ ("flow", Params.Flow); ("fm", Params.Fm);
                ("annealing", Params.Annealing); ("random", Params.Random) ])
           Params.Flow
       & info [ "partitioner" ] ~docv:"ALG" ~doc)

let trace_arg =
  let doc =
    "Record a pipeline trace (spans, counters, per-worker utilisation) \
     and write it to $(docv) on exit. A .json target gets Chrome \
     trace_event format (open in chrome://tracing or Perfetto); any \
     other extension gets the human-readable tree."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Install a trace sink around the subcommand body when --trace asks for
   one; the file is written even when the body raises, so failed runs
   still leave their partial trace behind. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let tr = Obs.create () in
    Obs.install tr;
    Fun.protect
      ~finally:(fun () ->
        Obs.uninstall ();
        let text =
          if Filename.check_suffix path ".json" then Obs_export.to_chrome tr
          else Obs_export.to_human tr
        in
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.eprintf "trace: wrote %s (%d events)\n" path
          (List.length (Obs.events tr)))
      f

(* documented once, attached to every subcommand *)
let exits =
  [ Cmd.Exit.info 0 ~doc:"on success, with nothing found.";
    Cmd.Exit.info 1
      ~doc:"on findings: lint diagnostics, check failures, fuzz violations.";
    Cmd.Exit.info 2 ~doc:"on usage errors and internal failures." ]

(* run a subcommand body returning its exit status; library failures
   (typed or stringly) become an error line and status 2 — they mean
   the tool could not do its job, not that it found something *)
let wrap_status ?trace f =
  try with_trace trace f with
  | Check_error.Error e ->
    Printf.eprintf "error: %s\n" (Check_error.to_string e);
    2
  | Circuit.Error msg ->
    Printf.eprintf "error: %s\n" msg;
    2
  | Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let wrap ?trace f =
  wrap_status ?trace (fun () ->
      f ();
      0)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats_run spec trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let s = Stats.of_circuit c in
      print_endline Stats.header;
      print_endline (Stats.row s);
      Format.printf "%a@." Stats.pp s)

let stats_cmd =
  let doc = "Print Table 9-style structural statistics of a circuit." in
  Cmd.v (Cmd.info "stats" ~doc ~exits)
    Term.(const stats_run $ circuit_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* partition                                                           *)

let locked_fn c names =
  match names with
  | [] -> None
  | _ ->
    let ids = Hashtbl.create 8 in
    List.iter
      (fun n ->
        match Circuit.find c n with
        | id -> Hashtbl.replace ids id ()
        | exception Not_found ->
          raise (Circuit.Error (Printf.sprintf "--lock: unknown signal %S" n)))
      names;
    Some (Hashtbl.mem ids)

let partition_run spec lk beta seed partitioner lock csv verbose trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let params = params_of ~partitioner lk beta seed in
      if csv then begin
        let r = Merced.run ~params ?locked:(locked_fn c lock) c in
        print_endline Report.csv_header;
        print_endline (Report.csv_row r)
      end
      else
        (* the human rendering is shared with `merced serve`, so the
           daemon's compile replies are byte-identical to this *)
        print_string
          (Serve_ops.compile ~verbose ?locked:(locked_fn c lock) ~params c)
            .Serve_ops.output)

let lock_arg =
  Arg.(value & opt (list string) [] & info [ "lock" ] ~docv:"SIGNALS"
         ~doc:"Comma-separated signal names to lock out of the BIST \
               conversion (Table 5's lock option).")

let partition_cmd =
  let doc = "Run the Merced pipeline: partition a circuit for PPET." in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit a machine-readable CSV row.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every partition.")
  in
  Cmd.v
    (Cmd.info "partition" ~doc ~exits)
    Term.(const partition_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ partitioner_arg $ lock_arg $ csv $ verbose $ trace_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_run name output seed trace =
  wrap ?trace (fun () ->
      let e = Benchmarks.find name in
      let c =
        Ppet_netlist.Generator.generate ~seed:(Int64.of_int seed)
          e.Benchmarks.profile
      in
      match output with
      | Some path ->
        write_circuit path c;
        Printf.printf "wrote %s (%d nodes)\n" path (Circuit.size c)
      | None -> print_string (Bench_writer.to_string c))

let generate_cmd =
  let doc =
    "Synthesize the stand-in netlist for a named ISCAS89 profile and emit \
     it in .bench format."
  in
  let bench_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark name, e.g. s5378.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of standard output.")
  in
  Cmd.v (Cmd.info "generate" ~doc ~exits)
    Term.(const generate_run $ bench_name $ output $ seed_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* selftest                                                            *)

let selftest_run spec lk beta seed max_width jobs trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let params = params_of lk beta seed in
      (* body shared with `merced serve` for byte-identical replies *)
      with_jobs jobs (fun pool ->
          print_string
            (Serve_ops.selftest ?pool ~params ~max_width c).Serve_ops.output))

let selftest_cmd =
  let doc =
    "Partition a circuit, then pseudo-exhaustively fault-test every \
     segment and print the PPET schedule."
  in
  let max_width =
    Arg.(value & opt int Campaign.default_plan.Campaign.max_width
         & info [ "max-width" ] ~docv:"W"
             ~doc:"Skip exhaustive simulation of segments wider than this.")
  in
  Cmd.v (Cmd.info "selftest" ~doc ~exits)
    Term.(const selftest_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ max_width $ jobs_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_run spec lk beta seed json jobs trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      (* body shared with `merced serve` for byte-identical replies *)
      with_jobs jobs (fun pool ->
          print_string
            (Serve_ops.analyze ?pool
               ~params:(params_of lk beta seed)
               ~json c)
              .Serve_ops.output))

let analyze_cmd =
  let doc =
    "Run the static dataflow analyses over a circuit: ternary \
     constant propagation, X-initializability, SCOAP testability, and \
     the per-segment untestable-fault classification the campaign \
     pruner uses. Deterministic output, no simulation."
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the statistics as JSON instead of the human \
                 summary.")
  in
  Cmd.v (Cmd.info "analyze" ~doc ~exits)
    Term.(const analyze_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ json $ jobs_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* insert                                                              *)

let insert_run spec lk beta seed output trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let r = Merced.run ~params:(params_of lk beta seed) c in
      let t = Ppet_core.Testable.insert r in
      Printf.printf
        "inserted %d test cells in %d CBITs (+%.0f area units, %.1f/cell)\n"
        (Ppet_core.Testable.cell_count t)
        (List.length t.Ppet_core.Testable.groups)
        t.Ppet_core.Testable.added_area
        (Ppet_core.Testable.measured_overhead_per_cell t);
      Printf.printf "controls: %s %s %s %s; scan chain %d bits\n"
        t.Ppet_core.Testable.test_en t.Ppet_core.Testable.fb_en
        t.Ppet_core.Testable.psa_en t.Ppet_core.Testable.scan_in
        (Ppet_core.Testable.scan_length t);
      match output with
      | Some path ->
        write_circuit path t.Ppet_core.Testable.circuit;
        Printf.printf "wrote %s (%d nodes)\n" path
          (Circuit.size t.Ppet_core.Testable.circuit)
      | None -> ())

let insert_cmd =
  let doc =
    "Insert the PPET test hardware (A_CELL registers, CBIT feedback, scan \
     chain) into a circuit and optionally write the testable netlist."
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the testable netlist in .bench format.")
  in
  Cmd.v (Cmd.info "insert" ~doc ~exits)
    Term.(const insert_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ output $ trace_arg)

(* ------------------------------------------------------------------ *)
(* retime                                                              *)

let retime_run spec lk beta seed output trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let r = Merced.run ~params:(params_of lk beta seed) c in
      match Merced.retimed_netlist r with
      | None -> prerr_endline "error: no legal retiming found"
      | Some (emitted, dropped) ->
        let c' = emitted.Ppet_retiming.To_circuit.circuit in
        Printf.printf
          "retimed netlist: %d nodes (%d registers; %d cut nets left to \
           multiplexed cells)\n"
          (Circuit.size c')
          (Array.length (Circuit.dffs c'))
          dropped;
        let unknown =
          List.length
            (List.filter
               (fun (_, v) -> v = Ppet_retiming.Logic3.X)
               emitted.Ppet_retiming.To_circuit.register_inits)
        in
        Printf.printf
          "initial states: %d registers, %d unknown (scan-initialised)\n"
          (List.length emitted.Ppet_retiming.To_circuit.register_inits)
          unknown;
        (match output with
         | Some path ->
           write_circuit path c';
           Printf.printf "wrote %s\n" path
         | None -> ()))

let retime_cmd =
  let doc =
    "Partition, solve for a legal retiming that registers every \
     combinational cut net, and emit the retimed netlist with recomputed \
     initial states."
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the retimed netlist in .bench format.")
  in
  Cmd.v (Cmd.info "retime" ~doc ~exits)
    Term.(const retime_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ output $ trace_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot_run spec lk beta seed output partitioned trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      let text =
        if partitioned then begin
          let r = Merced.run ~params:(params_of lk beta seed) c in
          let drivers =
            List.map
              (fun e -> Ppet_digraph.Netgraph.net_src r.Merced.graph e)
              r.Merced.assignment.Assign.cut_nets
          in
          Ppet_netlist.To_dot.partitioned c
            ~cluster_of:(fun v -> r.Merced.assignment.Assign.partition_of.(v))
            ~cut_net_drivers:drivers
        end
        else Ppet_netlist.To_dot.circuit c
      in
      match output with
      | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" path
      | None -> print_string text)

let dot_cmd =
  let doc = "Export a circuit (optionally with its PPET partitioning) as Graphviz dot." in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of standard output.")
  in
  let partitioned =
    Arg.(value & flag & info [ "p"; "partitioned" ]
           ~doc:"Run Merced first and draw the partitions and cut nets.")
  in
  Cmd.v (Cmd.info "dot" ~doc ~exits)
    Term.(const dot_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ output $ partitioned $ trace_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_run spec lks beta seed trace =
  wrap ?trace (fun () ->
      let c = load_circuit spec in
      Printf.printf "%-4s %9s %12s %9s %9s %12s %14s\n" "lk" "nets-cut"
        "cuts-on-SCC" "w/R(%)" "w/o(%)" "sigma(DFF)" "test-cycles";
      List.iter
        (fun lk ->
          let r = Merced.run ~params:(params_of lk beta seed) c in
          let b = r.Merced.breakdown in
          Printf.printf "%-4d %9d %12d %9.1f %9.1f %12.1f %14.3g\n" lk
            b.Ppet_core.Area_accounting.cuts_total
            b.Ppet_core.Area_accounting.cuts_on_scc
            b.Ppet_core.Area_accounting.ratio_with
            b.Ppet_core.Area_accounting.ratio_without r.Merced.sigma_dff
            r.Merced.testing_time)
        lks)

let sweep_cmd =
  let doc = "Sweep the input constraint and print the area/time trade-off." in
  let lks =
    Arg.(value & opt (list int) [ 8; 12; 16; 24 ] & info [ "lks" ] ~docv:"LKS"
           ~doc:"Comma-separated l_k values.")
  in
  Cmd.v (Cmd.info "sweep" ~doc ~exits)
    Term.(const sweep_run $ circuit_arg $ lks $ beta_arg $ seed_arg
          $ trace_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_run spec lk beta seed sequences cycles trace =
  wrap_status ?trace (fun () ->
      let c = load_circuit spec in
      let failures = ref 0 in
      let pass what = Printf.printf "%-11s ok: %s\n" what in
      let fail what =
        incr failures;
        Printf.printf "%-11s FAILED: %s\n" what
      in
      (* 1. writer -> parser round trip *)
      (match Bench_parser.parse_string (Bench_writer.to_string c) with
       | c' ->
         if Circuit.equal c c' then
           pass "round-trip" "writer -> parser is the identity"
         else fail "round-trip" "re-parsed netlist differs structurally"
       | exception Circuit.Error msg -> fail "round-trip" msg);
      let r = Merced.run ~params:(params_of lk beta seed) c in
      (* 2. retimed netlist vs the original, 3-valued *)
      (match Merced.retimed_netlist r with
       | None -> Printf.printf "%-11s skipped: no legal retiming\n" "retimed"
       | Some (emitted, dropped) ->
         let c' = emitted.Ppet_retiming.To_circuit.circuit in
         (match
            Seq_check.check ~sequences ~cycles c c'
              ~init_right:(Ppet_retiming.To_circuit.init_fn emitted)
          with
          | Seq_check.Equivalent { sequences; cycles; latency } ->
            pass "retimed"
              (Printf.sprintf
                 "equivalent over %d sequences x %d cycles (latency %d; %d \
                  cuts left to mux cells)"
                 sequences cycles latency dropped)
          | Seq_check.Inequivalent d ->
            incr failures;
            Printf.printf "%-11s FAILED:\n" "retimed";
            Format.printf "  @[<v>%a@]@." Seq_check.pp_divergence d));
      (* 3. testable netlist in normal mode, word-parallel boolean *)
      let t = Ppet_core.Testable.insert r in
      let v =
        Ppet_core.Equivalence.check_bool ~cycles:(max 32 cycles) c
          t.Ppet_core.Testable.circuit
          ~force_right:
            [ (t.Ppet_core.Testable.test_en, false);
              (t.Ppet_core.Testable.fb_en, false);
              (t.Ppet_core.Testable.psa_en, false);
              (t.Ppet_core.Testable.scan_in, false) ]
      in
      if v.Ppet_core.Equivalence.equivalent then
        pass "testable"
          (Printf.sprintf "normal mode bit-identical over %d random streams"
             (v.Ppet_core.Equivalence.cycles_run * 62))
      else
        fail "testable"
          (match v.Ppet_core.Equivalence.first_mismatch with
           | Some (cy, name) ->
             Printf.sprintf "output %s diverges at cycle %d" name cy
           | None -> "diverges");
      if !failures = 0 then begin
        print_endline "check passed";
        0
      end
      else begin
        Printf.printf "check FAILED (%d of 3 checks)\n" !failures;
        1
      end)

let check_cmd =
  let doc =
    "Differentially verify one compile: writer/parser round trip, \
     3-valued sequential equivalence of the retimed netlist, and \
     normal-mode equivalence of the testable netlist."
  in
  let sequences =
    Arg.(value & opt int 4 & info [ "sequences" ] ~docv:"N"
           ~doc:"Random input sequences per equivalence check (on top of \
                 the 4 directed ones).")
  in
  let cycles =
    Arg.(value & opt int 24 & info [ "cycles" ] ~docv:"C"
           ~doc:"Cycles per input sequence.")
  in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(const check_run $ circuit_arg $ lk_arg $ beta_arg $ seed_arg
          $ sequences $ cycles $ trace_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_run seed count trace =
  wrap_status ?trace (fun () ->
      let r = Fuzz.run ~seed:(Int64.of_int seed) ~count () in
      Format.printf "%a@." Fuzz.pp_report r;
      if r.Fuzz.violations = [] then 0 else 1)

let fuzz_cmd =
  let doc =
    "Fuzz the full Merced flow (parse, partition, retime, CBIT \
     synthesis, self-test session) with generated and mutated netlists \
     under a crash/invariant/equivalence oracle. Exits non-zero on any \
     oracle violation; runs are deterministic in --seed/--count."
  in
  let count =
    Arg.(value & opt int 50 & info [ "count"; "n" ] ~docv:"K"
           ~doc:"Number of fuzz cases.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~exits)
    Term.(const fuzz_run $ seed_arg $ count $ trace_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

(* .bench text goes through the tolerant front-end so a broken file is
   findings (exit 1), not a crash; everything else (s27, benchmark
   names, .v files) is loaded strictly and linted in memory *)
let lint_one ?pool ~rules ~params spec =
  match Serve_ops.read_bench_file spec with
  | Some (text, title, file) ->
    Lint_engine.run_text ?pool ~rules ~params ~title ~file text
  | None -> Lint_engine.run_circuit ?pool ~rules ~params (load_circuit spec)

let lint_list_rules () =
  List.iter
    (fun (r : Lint_registry.rule) ->
      Printf.printf "%-18s %-10s %-7s %s\n" r.Lint_registry.id
        (Lint_registry.family_name r.Lint_registry.family)
        (Diag.severity_name r.Lint_registry.severity)
        r.Lint_registry.doc)
    Lint_registry.all

let lint_run spec registry rules list_rules json verbose lk beta seed
    jobs trace =
  wrap_status ?trace (fun () ->
      if list_rules then begin
        lint_list_rules ();
        0
      end
      else begin
        let rules =
          match rules with [] -> Lint_registry.ids | sel -> sel
        in
        (match Lint_registry.validate_selection rules with
         | Ok () -> ()
         | Error msg -> raise (Circuit.Error msg));
        let params = params_of lk beta seed in
        let reports =
          with_jobs jobs (fun pool ->
              match (registry, spec) with
              | Some set, None ->
                let names =
                  match set with
                  | `Small -> Benchmarks.small
                  | `All -> Benchmarks.names
                in
                Lint_engine.run_registry ?pool ~rules ~params names
              | None, Some spec -> [ lint_one ?pool ~rules ~params spec ]
              | Some _, Some _ ->
                raise
                  (Circuit.Error "give either a CIRCUIT or --registry, not both")
              | None, None ->
                raise
                  (Circuit.Error
                     "nothing to lint: give a CIRCUIT or --registry"))
        in
        (if json then
           match reports with
           | [ r ] -> print_endline (Lint_engine.to_json r)
           | rs ->
             print_endline
               ("[" ^ String.concat "," (List.map Lint_engine.to_json rs) ^ "]")
         else
           List.iter
             (fun r -> List.iter print_endline (Lint_engine.to_human ~verbose r))
             reports);
        if List.exists (fun r -> Lint_engine.findings r > 0) reports then 1
        else 0
      end)

let lint_cmd =
  let doc =
    "Statically analyse a netlist (structural rules) and its compiled \
     PPET output (DFT rules, including an independent retiming-legality \
     certificate check). Diagnostics are deterministically ordered; \
     exit 0 = clean, 1 = findings, 2 = usage or internal error."
  in
  let circuit =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
           ~doc:"Circuit to lint: a .bench or .v file path, \"s27\", or an \
                 ISCAS89 benchmark name. Omit when using $(b,--registry).")
  in
  let registry =
    Arg.(value
         & opt (some (enum [ ("small", `Small); ("all", `All) ])) None
         & info [ "registry" ] ~docv:"SET"
             ~doc:"Lint a whole benchmark set instead of one circuit: \
                   $(b,small) (the sub-3000-area circuits) or $(b,all) \
                   (all seventeen; minutes of CPU).")
  in
  let rules =
    Arg.(value & opt (list string) [] & info [ "rules" ] ~docv:"IDS"
           ~doc:"Comma-separated rule ids to evaluate (default: all; see \
                 $(b,--list-rules)).")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ]
           ~doc:"Print the rule registry (id, family, severity, doc) and \
                 exit.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as JSON (an array in registry mode).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Also print info-severity diagnostics (advisory; never \
                 findings).")
  in
  Cmd.v (Cmd.info "lint" ~doc ~exits)
    Term.(const lint_run $ circuit $ registry $ rules $ list_rules $ json
          $ verbose $ lk_arg $ beta_arg $ seed_arg $ jobs_arg
          $ trace_arg)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

(* The regression guard of --against: every fresh guarded median must
   stay within its factor of the committed baseline's median for the
   same entry (name and job count). Retime medians are milliseconds and
   stable, so they get a tight 2x; fault_sim medians are microseconds
   and noisier, so they get 3x; the analysis fixed points are
   deterministic whole-graph sweeps, so a 2x drift means the worklist
   itself regressed. Fresh entries without a baseline row
   pass; mismatched circuit stats fail, because medians of different
   workloads are not comparable. *)
let guard_factor name =
  if Filename.check_suffix name "/retime" then Some 2.0
  else if Filename.check_suffix name "/fault_sim" then Some 3.0
  else if Filename.check_suffix name "/analysis" then Some 2.0
  else None

let bench_guard ~baseline entries =
  let key (e : Report.bench_entry) = (e.Report.entry_name, e.Report.jobs) in
  let base = List.map (fun e -> (key e, e)) baseline in
  let failures = ref 0 in
  List.iter
    (fun (e : Report.bench_entry) ->
      match guard_factor e.Report.entry_name with
      | None -> ()
      | Some factor -> (
        match List.assoc_opt (key e) base with
        | None ->
          Printf.printf "guard: %-24s no baseline entry, skipped\n"
            e.Report.entry_name
        | Some b ->
          let stats_ok =
            match (e.Report.circuit_stats, b.Report.circuit_stats) with
            (* compatible, not equal: baselines recorded before the
               partition-shape fields were stamped (segments = 0) stay
               comparable with freshly stamped entries *)
            | Some a, Some b -> Report.bench_stats_compatible a b
            | _, None -> true (* pre-stats baseline: compare on faith *)
            | None, Some _ -> false
          in
          if not stats_ok then begin
            incr failures;
            Printf.printf
              "guard: %-24s FAILED: circuit shape differs from baseline\n"
              e.Report.entry_name
          end
          else begin
            (* a nonpositive baseline median can only come from a bogus
               artefact (e.g. a --dry-run listing); the ratio would be
               inf/nan and the gate meaningless — loading already
               rejects it, this is the belt to that suspender *)
            if b.Report.median_ns <= 0. then
              raise
                (Circuit.Error
                   (Printf.sprintf
                      "--against: baseline entry %S has median %g ns"
                      b.Report.entry_name b.Report.median_ns));
            let ratio = e.Report.median_ns /. b.Report.median_ns in
            if ratio > factor then begin
              incr failures;
              Printf.printf
                "guard: %-24s FAILED: %.3gms vs baseline %.3gms (%.2fx > \
                 %.2fx)\n"
                e.Report.entry_name
                (e.Report.median_ns /. 1e6)
                (b.Report.median_ns /. 1e6)
                ratio factor
            end
            else
              Printf.printf "guard: %-24s ok (%.2fx of baseline)\n"
                e.Report.entry_name ratio
          end))
    entries;
  !failures

let bench_run benchmarks repeat jobs out against dry_run trace =
  wrap_status ?trace (fun () ->
      Benchmarks.validate_names ~flag:"--benchmarks" benchmarks;
      if repeat < 1 then raise (Circuit.Error "--repeat must be >= 1");
      validate_jobs jobs;
      let baseline =
        match against with
        | None -> None
        | Some path ->
          if not (Sys.file_exists path) then
            raise
              (Circuit.Error
                 (Printf.sprintf "--against: no such baseline file %S" path));
          let entries =
            Report.bench_entries_of_json
              (In_channel.with_open_text path In_channel.input_all)
          in
          if entries = [] then
            raise
              (Circuit.Error
                 (Printf.sprintf "--against: %S holds no bench entries" path));
          (* A median of zero means the baseline was never actually
             timed (a --dry-run artefact, or a hand-edited file). The
             2x gate would then compare against 0 — inf/nan ratios that
             either always pass or crash — so refuse the whole file up
             front with a usage error. *)
          List.iter
            (fun (e : Report.bench_entry) ->
              if e.Report.median_ns <= 0. then
                raise
                  (Circuit.Error
                     (Printf.sprintf
                        "--against: baseline entry %S has median %g ns — \
                         the file was never timed (a --dry-run artefact?); \
                         re-record it with `merced bench`"
                        e.Report.entry_name e.Report.median_ns)))
            entries;
          Some entries
      in
      let plan = { Bench_runner.benchmarks; repeat; jobs } in
      if dry_run then begin
        List.iter
          (fun (e : Report.bench_entry) ->
            Printf.printf "%s jobs=%d\n" e.Report.entry_name e.Report.jobs)
          (Bench_runner.entry_names plan);
        0
      end
      else begin
        let progress name = Printf.eprintf "bench: %s\n%!" name in
        let entries = Bench_runner.run ~progress plan in
        let json = Report.bench_json ~name:"pipeline" ~entries in
        let oc = open_out out in
        output_string oc json;
        close_out oc;
        Printf.printf "wrote %s (%d entries)\n" out (List.length entries);
        match baseline with
        | None -> 0
        | Some baseline ->
          if bench_guard ~baseline entries > 0 then 1 else 0
      end)

let bench_cmd =
  let doc =
    "Time every pipeline phase (generate, flow, cluster, assign, retime, \
     fault simulation at 1 and --jobs workers) on a benchmark sweep and \
     write the median/MAD regression baseline as BENCH JSON."
  in
  let benchmarks =
    Arg.(value
         & opt (list string) Bench_runner.default_plan.Bench_runner.benchmarks
         & info [ "benchmarks" ] ~docv:"NAMES"
             ~doc:"Comma-separated circuits to sweep: \"s27\", registry \
                   benchmark names, or the synthetic scale profiles \
                   (synth10k, synth100k, synth1m).")
  in
  let repeat =
    Arg.(value & opt int Bench_runner.default_plan.Bench_runner.repeat
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Timed samples per phase (median and MAD are over these).")
  in
  let jobs =
    Arg.(value & opt int Bench_runner.default_plan.Bench_runner.jobs
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker count of the parallel fault-simulation entry.")
  in
  let out =
    Arg.(value & opt string "BENCH_pipeline.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON baseline.")
  in
  let against =
    Arg.(value & opt (some string) None
         & info [ "against" ] ~docv:"FILE"
             ~doc:"Compare the fresh medians against this committed BENCH \
                   baseline and exit 1 when any regresses past its gate: \
                   2x for retime entries, 3x for the noisier fault_sim \
                   entries (matched by name and job count; a circuit-shape \
                   mismatch also fails).")
  in
  let dry_run =
    Arg.(value & flag
         & info [ "dry-run" ]
             ~doc:"List the entries that would be measured and exit \
                   without timing anything.")
  in
  Cmd.v (Cmd.info "bench" ~doc ~exits)
    Term.(const bench_run $ benchmarks $ repeat $ jobs $ out $ against
          $ dry_run $ trace_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign_run profiles lk beta seed max_width min_coverage out jobs trace =
  wrap_status ?trace (fun () ->
      let params = params_of lk beta seed in
      let plan =
        {
          Campaign.default_plan with
          Campaign.profiles;
          params;
          max_width;
          min_coverage;
        }
      in
      with_jobs jobs (fun pool ->
          (* body shared with `merced serve` for byte-identical replies;
             the JSON artefact rides on the report the op hands back *)
          let outcome, report = Serve_ops.campaign ?pool plan in
          print_string outcome.Serve_ops.output;
          (match out with
           | None -> ()
           | Some path ->
             let oc = open_out path in
             output_string oc (Campaign.to_json report);
             close_out oc;
             Printf.printf "wrote %s (%d circuits)\n" path
               (List.length report.Campaign.circuits));
          outcome.Serve_ops.exit_code))

let campaign_cmd =
  let doc =
    "Run a whole-chip self-test campaign: compile every requested \
     profile, prune each partition's statically untestable faults, \
     pseudo-exhaustively fault-simulate the rest through the \
     word-parallel batch engine (with fault dropping), and report \
     per-circuit coverage, aliasing and pipelined test time, also as \
     a JSON report (BENCH_campaign.json). Circuits run concurrently \
     across --jobs domains; results are identical at any job count."
  in
  let profiles =
    Arg.(value
         & opt (list string) Campaign.default_plan.Campaign.profiles
         & info [ "profiles" ] ~docv:"NAMES"
             ~doc:"Comma-separated circuits to campaign over: \"s27\", \
                   registry benchmark names, or synthetic profiles \
                   (default: all seventeen paper benchmarks).")
  in
  let max_width =
    Arg.(value & opt int Campaign.default_plan.Campaign.max_width
         & info [ "max-width" ] ~docv:"W"
             ~doc:"Skip exhaustive simulation of segments wider than this.")
  in
  let min_coverage =
    Arg.(value & opt float Campaign.default_plan.Campaign.min_coverage
         & info [ "min-coverage" ] ~docv:"FRAC"
             ~doc:"Fail (exit 1) when any circuit's testable-fault \
                   coverage lands below this fraction; 0 disables the \
                   gate.")
  in
  let out =
    Arg.(value & opt (some string) (Some "BENCH_campaign.json")
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON campaign report; \
                   $(b,--no-out) suppresses it.")
  in
  let no_out =
    Arg.(value & flag & info [ "no-out" ]
           ~doc:"Do not write the JSON report file.")
  in
  let out_term =
    Term.(const (fun out no_out -> if no_out then None else out) $ out $ no_out)
  in
  Cmd.v (Cmd.info "campaign" ~doc ~exits)
    Term.(const campaign_run $ profiles $ lk_arg $ beta_arg $ seed_arg
          $ max_width $ min_coverage $ out_term $ jobs_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let socket_arg =
  let doc = "Unix socket path the daemon listens on." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_run socket jobs queue_limit timeout_ms quiet trace =
  wrap ?trace (fun () ->
      Ppet_serve.Server.run
        {
          Ppet_serve.Server.socket_path = socket;
          jobs;
          queue_limit;
          default_timeout_ms = timeout_ms;
          quiet;
        })

let serve_cmd =
  let doc =
    "Run the merced compile daemon: accept \
     compile/lint/selftest/analyze/campaign jobs as newline-delimited \
     JSON over a Unix socket, schedule them across a domain pool, stream \
     per-stage progress, and answer repeat submissions from a \
     content-addressed result cache. Runs until a shutdown request, then \
     drains the queue and exits."
  in
  let jobs =
    Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains executing jobs concurrently (each job \
                 itself runs serially, so results match the one-shot \
                 CLI byte for byte).")
  in
  let queue_limit =
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Jobs admitted to the queue before submissions are \
                 answered with a busy error (backpressure).")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Default per-job queue-wait timeout for requests that \
                 set none.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"Suppress the lifecycle lines on standard error.")
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(const serve_run $ socket_arg $ jobs $ queue_limit $ timeout_ms
          $ quiet $ trace_arg)

(* ------------------------------------------------------------------ *)
(* submit                                                              *)

(* A .bench file is shipped inline (the daemon may run in another
   directory), with title/file attached so diagnostics and titles match
   the one-shot CLI on the same path. Everything else — "s27", registry
   names, .v paths — goes as a spec for the server to resolve. *)
let source_fields circuit =
  match Serve_ops.read_bench_file circuit with
  | Some (text, title, file) ->
    [
      ("bench", Sjson.Str text);
      ("title", Sjson.Str title);
      ("file", Sjson.Str file);
    ]
  | None -> [ ("circuit", Sjson.Str circuit) ]

let submit_request ~op ~circuit ~suite ~stats ~shutdown ~lk ~beta ~seed
    ~verbose ~rules ~max_width ~benchmarks ~ms ~timeout_ms ~progress =
  if stats then Sjson.Obj [ ("op", Sjson.Str "stats") ]
  else if shutdown then Sjson.Obj [ ("op", Sjson.Str "shutdown") ]
  else
    let common =
      [
        ("lk", Sjson.Num (float_of_int lk));
        ("beta", Sjson.Num (float_of_int beta));
        ("seed", Sjson.Num (float_of_int seed));
      ]
      @ (match timeout_ms with
         | Some t -> [ ("timeout_ms", Sjson.Num (float_of_int t)) ]
         | None -> [])
      @ if progress then [ ("progress", Sjson.Bool true) ] else []
    in
    match suite with
    | Some path -> (
      let text = In_channel.with_open_text path In_channel.input_all in
      match Sjson.of_string text with
      | Ok (Sjson.List jobs) ->
        Sjson.Obj [ ("op", Sjson.Str "suite"); ("jobs", Sjson.List jobs) ]
      | Ok _ ->
        raise
          (Circuit.Error
             (Printf.sprintf
                "--suite: %S must hold a JSON list of job objects" path))
      | Error msg ->
        raise (Circuit.Error (Printf.sprintf "--suite: %s: %s" path msg)))
    | None ->
      let need_circuit () =
        match circuit with
        | Some c -> source_fields c
        | None ->
          raise
            (Circuit.Error
               "submit: give a CIRCUIT (or --stats, --shutdown, --suite)")
      in
      let op_fields =
        match op with
        | `Compile ->
          (("op", Sjson.Str "compile") :: need_circuit ())
          @ if verbose then [ ("verbose", Sjson.Bool true) ] else []
        | `Lint ->
          (("op", Sjson.Str "lint") :: need_circuit ())
          @ (match rules with
             | [] -> []
             | r -> [ ("rules", Sjson.List (List.map (fun s -> Sjson.Str s) r)) ])
          @ if verbose then [ ("verbose", Sjson.Bool true) ] else []
        | `Selftest ->
          (("op", Sjson.Str "selftest") :: need_circuit ())
          @ [ ("max_width", Sjson.Num (float_of_int max_width)) ]
        | `Analyze -> ("op", Sjson.Str "analyze") :: need_circuit ()
        | `Campaign ->
          (* --benchmarks names the profiles; without it the daemon
             runs its own default, as `merced campaign` does *)
          (("op", Sjson.Str "campaign")
           :: (match benchmarks with
               | Some names ->
                 [ ("profiles", Sjson.List (List.map (fun s -> Sjson.Str s) names)) ]
               | None -> []))
          @ [ ("max_width", Sjson.Num (float_of_int max_width)) ]
        | `Sleep ->
          [ ("op", Sjson.Str "sleep"); ("ms", Sjson.Num (float_of_int ms)) ]
      in
      Sjson.Obj (op_fields @ common)

let submit_run socket op circuit suite stats shutdown lk beta seed verbose
    rules max_width benchmarks ms timeout_ms progress meta retry_for trace =
  wrap_status ?trace (fun () ->
      let req =
        submit_request ~op ~circuit ~suite ~stats ~shutdown ~lk ~beta ~seed
          ~verbose ~rules ~max_width ~benchmarks ~ms ~timeout_ms ~progress
      in
      let on_progress ~stage phase =
        Printf.eprintf "progress: %s %s\n%!" stage
          (match phase with `Begin -> "begin" | `End -> "end")
      in
      let reply =
        Ppet_serve.Client.request ~retry_for
          ?on_progress:(if progress then Some on_progress else None)
          ~socket req
      in
      match reply with
      | Error msg -> raise (Circuit.Error msg)
      | Ok frame -> (
        match Sjson.str_member "type" frame with
        | Some "error" ->
          let stage =
            Option.value ~default:"session" (Sjson.str_member "stage" frame)
          in
          let message =
            Option.value ~default:"unknown error"
              (Sjson.str_member "message" frame)
          in
          Printf.eprintf "error: %s: %s\n" stage message;
          2
        | Some "result" -> (
          match Sjson.str_member "op" frame with
          | Some "shutdown" -> 0
          | Some "stats" ->
            print_endline (Sjson.to_string frame);
            0
          | Some "suite" ->
            print_endline (Sjson.to_string frame);
            let n key =
              Option.value ~default:0 (Sjson.int_member key frame)
            in
            if n "errors" > 0 then 2 else if n "findings" > 0 then 1 else 0
          | _ ->
            print_string
              (Option.value ~default:"" (Sjson.str_member "output" frame));
            if meta then
              Printf.eprintf "cached: %b\n"
                (Option.value ~default:false
                   (Sjson.bool_member "cached" frame));
            Option.value ~default:2 (Sjson.int_member "exit_code" frame))
        | _ -> raise (Circuit.Error "malformed reply: no \"type\" field")))

let submit_cmd =
  let doc =
    "Submit a job to a running $(b,merced serve) daemon and print the \
     result exactly as the one-shot subcommand would (same bytes, same \
     exit code). Also speaks the control ops: --stats, --shutdown, and \
     --suite batch manifests."
  in
  let op =
    Arg.(value
         & opt
             (enum
                [ ("compile", `Compile); ("lint", `Lint);
                  ("selftest", `Selftest); ("analyze", `Analyze);
                  ("campaign", `Campaign); ("sleep", `Sleep) ])
             `Compile
         & info [ "op" ] ~docv:"OP"
             ~doc:"Job kind: $(b,compile) (= partition), $(b,lint), \
                   $(b,selftest), $(b,analyze), $(b,campaign) \
                   (--benchmarks names the profiles), or $(b,sleep) \
                   (diagnostic).")
  in
  let circuit =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
           ~doc:"Circuit for compile/lint/selftest: a .bench or .v path, \
                 \"s27\", or a benchmark name. .bench files are sent \
                 inline, so the daemon needs no access to the file.")
  in
  let suite =
    Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"FILE"
           ~doc:"Submit a whole manifest (a JSON list of job objects) as \
                 one batch; prints the aggregated report.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Query daemon statistics.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to drain its queue and exit.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"compile: list every partition; lint: include infos.")
  in
  let rules =
    Arg.(value & opt (list string) [] & info [ "rules" ] ~docv:"IDS"
           ~doc:"lint: comma-separated rule ids (default: all).")
  in
  let max_width =
    Arg.(value & opt int Campaign.default_plan.Campaign.max_width
         & info [ "max-width" ] ~docv:"W"
             ~doc:"selftest: skip exhaustive simulation of wider segments.")
  in
  let benchmarks =
    Arg.(value & opt (some (list string)) None
         & info [ "benchmarks" ] ~docv:"NAMES"
             ~doc:"campaign: the profiles to campaign over (default: all \
                   seventeen paper benchmarks).")
  in
  let ms =
    Arg.(value & opt int 100 & info [ "ms" ] ~docv:"MS"
           ~doc:"sleep: how long the diagnostic job holds a worker.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Fail the job if it still waits in the daemon's queue \
                 after this long.")
  in
  let progress =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Stream per-stage progress lines to standard error.")
  in
  let meta =
    Arg.(value & flag & info [ "meta" ]
           ~doc:"Also print reply metadata (cache hit?) to standard error.")
  in
  let retry_for =
    Arg.(value & opt float 5.0 & info [ "retry-for" ] ~docv:"SECS"
           ~doc:"Keep retrying the connection this long before giving up \
                 (absorbs a daemon still starting).")
  in
  Cmd.v (Cmd.info "submit" ~doc ~exits)
    Term.(const submit_run $ socket_arg $ op $ circuit $ suite $ stats
          $ shutdown $ lk_arg $ beta_arg $ seed_arg $ verbose $ rules
          $ max_width $ benchmarks $ ms $ timeout_ms $ progress
          $ meta $ retry_for $ trace_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "Merced: area-efficient pipelined pseudo-exhaustive testing with retiming" in
  let info = Cmd.info "merced" ~version:"1.0.0" ~doc ~exits in
  Cmd.group info
    [ stats_cmd; partition_cmd; generate_cmd; selftest_cmd; analyze_cmd;
      insert_cmd; retime_cmd; dot_cmd; sweep_cmd; check_cmd; fuzz_cmd;
      lint_cmd; bench_cmd; campaign_cmd; serve_cmd; submit_cmd ]

let () =
  let code = Cmd.eval' main_cmd in
  (* Cmdliner's own parse/internal errors (124/125) map onto the
     documented usage/internal code *)
  exit
    (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2
     else code)
