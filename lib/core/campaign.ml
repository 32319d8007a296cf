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
module Obs = Ppet_obs.Obs

type plan = {
  profiles : string list;
  params : Params.t;
  words : int;
  max_width : int;
  min_coverage : float;
}

let default_plan =
  {
    profiles = Benchmarks.names;
    params = Params.default;
    words = 8;
    (* every segment Merced builds under the default input constraint *)
    max_width = Params.default.Params.l_k;
    min_coverage = 0.0;
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

type report = {
  words : int;
  max_width : int;
  circuits : circuit_report list;
}

let validate plan =
  if plan.profiles = [] then
    invalid_arg "Campaign.run: profiles must be non-empty";
  if plan.words < 1 then invalid_arg "Campaign.run: words must be >= 1";
  if plan.max_width < 0 || plan.max_width > Fault_engine.max_exhaustive_width
  then invalid_arg "Campaign.run: max_width must be in 0..20";
  if plan.min_coverage < 0.0 || plan.min_coverage > 1.0 then
    invalid_arg "Campaign.run: min_coverage must be in 0..1";
  Benchmarks.validate_names plan.profiles

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
  let policy = Batch.policy ~words:plan.words ?pool () in
  let uctx = Untestable.ctx c in
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
        let cls = Untestable.classify uctx seg faults in
        n_untestable := !n_untestable + List.length cls.Untestable.untestable;
        n_faults := !n_faults + List.length faults;
        let engine = Fault_engine.create sim seg in
        let o =
          Batch.run engine policy ~patterns:Batch.Exhaustive
            cls.Untestable.testable
        in
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
  { words = plan.words; max_width = plan.max_width; circuits }

let below_min plan report =
  if plan.min_coverage <= 0.0 then []
  else List.filter (fun cr -> cr.coverage < plan.min_coverage) report.circuits

let human report =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "campaign: %d circuits, words %d, max width %d\n"
    (List.length report.circuits)
    report.words report.max_width;
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
  Buffer.contents buf

let to_json ?(normalise = false) report =
  let buf = Buffer.create 2048 in
  let ns x = if normalise then 0.0 else x in
  Printf.bprintf buf
    "{\n  \"name\": \"campaign\",\n  \"words\": %d,\n  \"max_width\": %d,\n  \
     \"circuits\": ["
    report.words report.max_width;
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
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
