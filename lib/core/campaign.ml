module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module S27 = Ppet_netlist.S27
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Aliasing = Ppet_bist.Aliasing
module Pipeline = Ppet_bist.Pipeline
module Untestable = Ppet_analysis.Untestable
module Domain_pool = Ppet_parallel.Domain_pool
module Bench_stat = Ppet_obs.Bench_stat
module Obs = Ppet_obs.Obs
module Prng = Ppet_digraph.Prng

type plan = {
  profiles : string list;
  params : Params.t;
  words : int;
  drop : bool;
  max_width : int;
  min_coverage : float;
  prune : bool;
  probe : string option;
  probe_repeat : int;
}

let default_plan =
  {
    profiles = Benchmarks.names;
    params = Params.default;
    words = 8;
    drop = true;
    (* every segment Merced builds under the default input constraint *)
    max_width = Params.default.Params.l_k;
    min_coverage = 0.0;
    prune = true;
    probe = None;
    probe_repeat = 11;
  }

type circuit_report = {
  circuit : string;
  gates : int;
  dffs : int;
  segments : int;
  tested : int;
  skipped : int;
  n_faults : int;
  n_untestable : int;
  n_detected : int;
  coverage : float;
  coverage_raw : float;
  aliasing : float;
  test_cycles : float;
  vectors : int;
  word_evals : int;
  wall_ns : float;
}

type probe_report = {
  probe_circuit : string;
  probe_gates : int;
  probe_faults : int;
  probe_batches : int;
  probe_words : int;
  single_ns : float;
  multi_ns : float;
  speedup : float;
}

type report = {
  words : int;
  drop : bool;
  max_width : int;
  prune : bool;
  circuits : circuit_report list;
  probe : probe_report option;
}

let validate_profiles names =
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

let validate plan =
  if plan.profiles = [] then
    invalid_arg "Campaign.run: profiles must be non-empty";
  if plan.words < 1 then invalid_arg "Campaign.run: words must be >= 1";
  if plan.max_width < 0 || plan.max_width > Fault_engine.max_exhaustive_width
  then invalid_arg "Campaign.run: max_width must be in 0..20";
  if plan.min_coverage < 0.0 || plan.min_coverage > 1.0 then
    invalid_arg "Campaign.run: min_coverage must be in 0..1";
  if plan.probe_repeat < 1 then
    invalid_arg "Campaign.run: probe_repeat must be >= 1";
  validate_profiles plan.profiles;
  Option.iter (fun p -> validate_profiles [ p ]) plan.probe

let now_ns () = Unix.gettimeofday () *. 1e9

(* Generate directly instead of through the memoising Benchmarks.circuit
   cache: campaign workers run concurrently and the cache's plain
   Hashtbl is not theirs to race on. Same default seed, so the circuits
   are identical to what `merced selftest <name>` compiles. *)
let generate name =
  if name = "s27" then S27.circuit ()
  else
    let e = Benchmarks.find name in
    Generator.generate ~seed:0x5EEDL e.Benchmarks.profile

let run_circuit ?pool plan name =
  let t0 = now_ns () in
  let c = generate name in
  let r = Merced.run ~params:plan.params c in
  let sim = Simulator.create c in
  let segs = Merced.segments r in
  let policy =
    Batch.policy ~words:plan.words ?pool
      ~drop:(if plan.drop then Batch.Drop else Batch.Keep) ()
  in
  let uctx = if plan.prune then Some (Untestable.ctx c) else None in
  let tested = ref 0 and skipped = ref 0 in
  let n_faults = ref 0 and n_untestable = ref 0 and n_detected = ref 0 in
  let vectors = ref 0 and word_evals = ref 0 in
  let alias = ref 0.0 in
  List.iter
    (fun seg ->
      let w = Segment.input_count seg in
      if w > plan.max_width then incr skipped
      else begin
        incr tested;
        let faults = Fault.collapse c (Fault.of_segment c seg) in
        (* the static pre-pass: provably-untestable faults never reach
           the simulator. Verdicts are per-fault (fault + patterns
           only), so the detected set over the surviving faults is
           bit-identical to the unpruned engine's. *)
        let simulated =
          match uctx with
          | None -> faults
          | Some uctx ->
            let cls = Untestable.classify uctx seg faults in
            n_untestable := !n_untestable + List.length cls.Untestable.untestable;
            cls.Untestable.testable
        in
        n_faults := !n_faults + List.length faults;
        let engine = Fault_engine.create sim seg in
        let o = Batch.run engine policy ~patterns:Batch.Exhaustive simulated in
        n_detected := !n_detected + o.Batch.n_detected;
        vectors := !vectors + (1 lsl w);
        word_evals := !word_evals + o.Batch.word_evals;
        (* a zero-input segment has no CBIT stream to compact, so it
           contributes no aliasing term *)
        if w > 0 then alias := !alias +. Aliasing.probability ~width:w
      end)
    segs;
  let sched = Phasing.schedule r in
  {
    circuit = name;
    gates = Array.length (Circuit.combinational c);
    dffs = Array.length (Circuit.dffs c);
    segments = List.length segs;
    tested = !tested;
    skipped = !skipped;
    n_faults = !n_faults;
    n_untestable = !n_untestable;
    n_detected = !n_detected;
    coverage =
      (let testable = !n_faults - !n_untestable in
       if testable = 0 then 1.0
       else float_of_int !n_detected /. float_of_int testable);
    coverage_raw =
      (if !n_faults = 0 then 1.0
       else float_of_int !n_detected /. float_of_int !n_faults);
    aliasing = Float.min 1.0 !alias;
    test_cycles = Pipeline.total_cycles sched;
    vectors = !vectors;
    word_evals = !word_evals;
    wall_ns = now_ns () -. t0;
  }

let probe_batches = 64

(* The throughput probe: a fixed fault-simulation workload timed once
   at one pattern word per gate visit and once at [plan.words]. The
   segment is
   the largest Merced cluster of the probe circuit — the campaign's own
   unit of work, and the regime that matters: interior gates are
   unobserved, so a fault must propagate through the member cone to a
   boundary output before it detects. Dropping is off so both runs do
   exactly the same per-fault-pattern work and the wall-clock ratio is
   the throughput ratio. *)
let probe_workload params c sim =
  let r = Merced.run ~params c in
  let seg =
    match Merced.segments r with
    | [] -> invalid_arg "Campaign.run: probe circuit has no segments"
    | s :: rest ->
      List.fold_left
        (fun best s ->
          if Array.length s.Segment.members > Array.length best.Segment.members
          then s
          else best)
        s rest
  in
  let faults = Fault.collapse c (Fault.of_segment c seg) in
  let n_in = Array.length (Segment.input_signals seg) in
  let rng = Prng.create 0xBE5CL in
  let word () =
    Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
  in
  let patterns =
    List.init probe_batches (fun _ -> Array.init n_in (fun _ -> word ()))
  in
  (Fault_engine.create sim seg, seg, Batch.Batches patterns, faults)

let run_probe plan name =
  let c = generate name in
  let sim = Simulator.create c in
  let engine, seg, patterns, faults = probe_workload plan.params c sim in
  let time words =
    let pol = Batch.policy ~words ~drop:Batch.Keep () in
    (Bench_stat.measure ~repeat:plan.probe_repeat (fun () ->
         ignore (Batch.run engine pol ~patterns faults)))
      .Bench_stat.median_ns
  in
  let single_ns = time 1 in
  let multi_ns = time plan.words in
  {
    probe_circuit = name;
    probe_gates = Array.length seg.Segment.members;
    probe_faults = List.length faults;
    probe_batches;
    probe_words = plan.words;
    single_ns;
    multi_ns;
    speedup = (if multi_ns > 0.0 then single_ns /. multi_ns else 0.0);
  }

let run ?pool plan =
  validate plan;
  let names = Array.of_list plan.profiles in
  let n = Array.length names in
  let slots = Array.make n None in
  let do_one i = slots.(i) <- Some (run_circuit ?pool plan names.(i)) in
  (match pool with
   | Some p when Domain_pool.jobs p > 1 && n > 1 ->
     (* work-stealing over circuits: costs vary by two orders of
        magnitude between s510 and s38584, so static chunking would
        idle most workers. Results land in plan order via the slot
        array, so scheduling cannot leak into the report. *)
     let next = Atomic.make 0 in
     Domain_pool.run p (fun _w ->
         let rec loop () =
           let i = Atomic.fetch_and_add next 1 in
           if i < n then begin
             do_one i;
             loop ()
           end
         in
         loop ())
   | _ ->
     for i = 0 to n - 1 do
       do_one i
     done);
  if Obs.enabled () then Obs.add Obs.Metric.Campaign_circuits n;
  let circuits =
    Array.to_list
      (Array.map
         (function Some cr -> cr | None -> assert false)
         slots)
  in
  let probe = Option.map (run_probe plan) plan.probe in
  {
    words = plan.words;
    drop = plan.drop;
    max_width = plan.max_width;
    prune = plan.prune;
    circuits;
    probe;
  }

let below_min plan report =
  if plan.min_coverage <= 0.0 then []
  else List.filter (fun cr -> cr.coverage < plan.min_coverage) report.circuits

let human report =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "campaign: %d circuits, words %d, drop %s, max width %d, prune %s\n"
    (List.length report.circuits)
    report.words
    (if report.drop then "on" else "off")
    report.max_width
    (if report.prune then "on" else "off");
  Printf.bprintf buf "%-12s %6s %5s %5s %7s %8s %7s %9s %9s %10s %12s\n"
    "circuit" "gates" "dffs" "segs" "tested" "faults" "pruned" "detected"
    "coverage" "aliasing" "test-cycles";
  List.iter
    (fun cr ->
      Printf.bprintf buf
        "%-12s %6d %5d %5d %7d %8d %7d %9d %8.2f%% %10.2e %12.0f\n"
        cr.circuit cr.gates cr.dffs cr.segments cr.tested cr.n_faults
        cr.n_untestable cr.n_detected
        (100.0 *. cr.coverage)
        cr.aliasing cr.test_cycles)
    report.circuits;
  let tf = List.fold_left (fun a cr -> a + cr.n_faults) 0 report.circuits in
  let tu = List.fold_left (fun a cr -> a + cr.n_untestable) 0 report.circuits in
  let td = List.fold_left (fun a cr -> a + cr.n_detected) 0 report.circuits in
  let tt = List.fold_left (fun a cr -> a + cr.tested) 0 report.circuits in
  let ts = List.fold_left (fun a cr -> a + cr.skipped) 0 report.circuits in
  let tx = tf - tu in
  Printf.bprintf buf
    "total: %d/%d faults detected (%d untestable pruned; coverage %.2f%% of \
     testable, %.2f%% raw), %d segments tested, %d skipped\n"
    td tf tu
    (if tx = 0 then 100.0 else 100.0 *. float_of_int td /. float_of_int tx)
    (if tf = 0 then 100.0 else 100.0 *. float_of_int td /. float_of_int tf)
    tt ts;
  (match report.probe with
   | None -> ()
   | Some p ->
     Printf.bprintf buf
       "probe %s: %d gates, %d faults, %d batches: words %d vs 1 -> %.1fx \
        per-fault-pattern throughput\n"
       p.probe_circuit p.probe_gates p.probe_faults p.probe_batches
       p.probe_words p.speedup);
  Buffer.contents buf

let to_json ?(normalise = false) report =
  let buf = Buffer.create 2048 in
  let ns x = if normalise then 0.0 else x in
  Printf.bprintf buf
    "{\n  \"name\": \"campaign\",\n  \"words\": %d,\n  \"drop\": %b,\n  \
     \"max_width\": %d,\n  \"prune\": %b,\n  \"circuits\": ["
    report.words report.drop report.max_width report.prune;
  let first = ref true in
  List.iter
    (fun cr ->
      Printf.bprintf buf "%s\n    { \"name\": \"%s\", \"gates\": %d, \
                          \"dffs\": %d, \"segments\": %d, \"tested\": %d, \
                          \"skipped\": %d, \"faults\": %d, \"untestable\": \
                          %d, \"testable\": %d, \"detected\": %d, \
                          \"coverage\": %.6g, \"coverage_raw\": %.6g, \
                          \"aliasing\": %.6g, \"test_cycles\": %.6g, \
                          \"vectors\": %d, \"word_evals\": %d, \"wall_ns\": \
                          %.6g }"
        (if !first then "" else ",")
        cr.circuit cr.gates cr.dffs cr.segments cr.tested cr.skipped
        cr.n_faults cr.n_untestable
        (cr.n_faults - cr.n_untestable)
        cr.n_detected cr.coverage cr.coverage_raw cr.aliasing cr.test_cycles
        cr.vectors cr.word_evals (ns cr.wall_ns);
      first := false)
    report.circuits;
  Buffer.add_string buf "\n  ]";
  (match report.probe with
   | None -> ()
   | Some p ->
     Printf.bprintf buf
       ",\n  \"probe\": { \"circuit\": \"%s\", \"gates\": %d, \"faults\": %d, \
        \"batches\": %d, \"words\": %d, \"single_ns\": %.6g, \"multi_ns\": \
        %.6g, \"speedup\": %.6g }"
       p.probe_circuit p.probe_gates p.probe_faults p.probe_batches
       p.probe_words (ns p.single_ns) (ns p.multi_ns) (ns p.speedup));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
