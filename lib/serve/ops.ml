module Circuit = Ppet_netlist.Circuit
module Bench_parser = Ppet_netlist.Bench_parser
module Bench_writer = Ppet_netlist.Bench_writer
module Benchmarks = Ppet_netlist.Benchmarks
module Segment = Ppet_netlist.Segment
module S27 = Ppet_netlist.S27
module Merced = Ppet_core.Merced
module Report = Ppet_core.Report
module Campaign = Ppet_core.Campaign
module Fault_engine = Ppet_bist.Fault_engine
module Assign = Ppet_core.Assign
module Phasing = Ppet_core.Phasing
module Bench_runner = Ppet_core.Bench_runner
module Pet = Ppet_bist.Pet
module Simulator = Ppet_bist.Simulator
module Pipeline = Ppet_bist.Pipeline
module Lint_engine = Ppet_lint.Engine

type outcome = {
  exit_code : int;  (* the CLI contract: 0 clean, 1 findings, 2 failure *)
  output : string;  (* exactly the bytes the one-shot CLI prints *)
}

(* ------------------------------------------------------------------ *)
(* circuit loading                                                     *)

let load_circuit spec =
  if spec = "s27" then S27.circuit ()
  else if Sys.file_exists spec then
    if Filename.check_suffix spec ".v" then
      Ppet_netlist.Verilog.parse_file spec
    else Bench_parser.parse_file spec
  else
    match Benchmarks.find spec with
    | exception Not_found ->
      raise
        (Circuit.Error
           (Printf.sprintf
              "%S is neither a file, \"s27\", nor a known benchmark (%s)"
              spec
              (String.concat ", " Benchmarks.names)))
    | _ -> Benchmarks.circuit spec

(* The benchmark generator memoises into a plain Hashtbl; concurrent
   server jobs must not race it. The one-shot CLI goes through the same
   lock — uncontended, it is a handful of nanoseconds. *)
let load_mutex = Mutex.create ()

let load_circuit_locked spec =
  Mutex.protect load_mutex (fun () -> load_circuit spec)

let canonical c = Bench_writer.to_string c

(* ------------------------------------------------------------------ *)
(* compile (the CLI's `partition`, human form)                         *)

let compile ?(verbose = false) ?locked ~params c =
  let r = Merced.run ~params ?locked c in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Report.summary r);
  Buffer.add_char buf '\n';
  (match Merced.retiming_feasibility r with
   | `Feasible ->
     Buffer.add_string buf
       "  legal retiming covers every combinational cut net\n"
   | `Needs_mux n ->
     Printf.bprintf buf
       "  legal retiming blocked on %d cut nets (multiplexed cells)\n" n);
  if verbose then
    List.iteri
      (fun i (p : Assign.partition) ->
        Printf.bprintf buf "  partition %d: %d vertices, iota = %d%s%s\n" i
          (Array.length p.Assign.vertices)
          p.Assign.input_count
          (if p.Assign.oversize then " (oversize)" else "")
          (if p.Assign.locked then " (locked)" else ""))
      r.Merced.assignment.Assign.partitions;
  { exit_code = 0; output = Buffer.contents buf }

(* ------------------------------------------------------------------ *)
(* selftest                                                            *)

let selftest ?pool ~params ~max_width c =
  let r = Merced.run ~params c in
  let sim = Simulator.create c in
  let segments = Merced.segments r in
  let policy = Fault_engine.Batch.policy ?pool () in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "circuit %s: %d segments\n" c.Circuit.title
    (List.length segments);
  List.iteri
    (fun i seg ->
      let w = Segment.input_count seg in
      if w > 0 && w <= max_width then begin
        let rep = Pet.run ~policy sim seg in
        Buffer.add_string buf (Format.asprintf "  segment %d: %a@." i Pet.pp rep)
      end
      else
        Printf.bprintf buf
          "  segment %d: iota = %d, skipped (exhaustive bound %d)\n" i w
          max_width)
    segments;
  let phasing = Phasing.compute r in
  Buffer.add_string buf (Format.asprintf "%a@." Phasing.pp phasing);
  let sched = Phasing.schedule r in
  Buffer.add_string buf (Format.asprintf "%a@." Pipeline.pp sched);
  { exit_code = 0; output = Buffer.contents buf }

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze ?pool ~params ~json c =
  let t = Ppet_core.Analyze.run ?pool ~params c in
  {
    exit_code = 0;
    output =
      (if json then Ppet_core.Analyze.to_json t
       else Ppet_core.Analyze.human t);
  }

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

let lint_outcome ?(verbose = false) report =
  let lines = Lint_engine.to_human ~verbose report in
  let buf = Buffer.create 256 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  {
    exit_code = (if Lint_engine.findings report > 0 then 1 else 0);
    output = Buffer.contents buf;
  }

let lint ?pool ?rules ?verbose ~params c =
  lint_outcome ?verbose (Lint_engine.run_circuit ?pool ?rules ~params c)

let lint_text ?pool ?rules ?verbose ~params ?title ?file text =
  lint_outcome ?verbose (Lint_engine.run_text ?pool ?rules ~params ?title ?file text)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

let validate_benchmarks names =
  List.iter
    (fun name ->
      if
        name <> "s27"
        && (not (List.mem name Benchmarks.names))
        && not (List.mem name Benchmarks.synthetic_names)
      then
        raise
          (Circuit.Error
             (Printf.sprintf
                "%S is neither \"s27\", a known benchmark (%s), nor a \
                 synthetic profile (%s)"
                name
                (String.concat ", " Benchmarks.names)
                (String.concat ", " Benchmarks.synthetic_names))))
    names

let bench ~benchmarks ~repeat =
  validate_benchmarks benchmarks;
  if repeat < 1 then raise (Circuit.Error "repeat must be >= 1");
  let entries =
    Mutex.protect load_mutex (fun () ->
        Bench_runner.run { Bench_runner.benchmarks; repeat; jobs = 1 })
  in
  { exit_code = 0; output = Report.bench_json ~name:"pipeline" ~entries }

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign ?pool (plan : Campaign.plan) =
  let report = Campaign.run ?pool plan in
  let failures = Campaign.below_min plan report in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Campaign.human report);
  List.iter
    (fun (cr : Campaign.circuit_report) ->
      Printf.bprintf buf
        "coverage gate: %s at %.2f%% is below the %.2f%% minimum\n"
        cr.Campaign.circuit
        (100.0 *. cr.Campaign.coverage)
        (100.0 *. plan.Campaign.min_coverage))
    failures;
  ( { exit_code = (if failures = [] then 0 else 1); output = Buffer.contents buf },
    report )
