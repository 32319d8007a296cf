module Segment = Ppet_netlist.Segment

type report = {
  width : int;
  n_faults : int;
  n_detected : int;
  n_redundant : int;
  coverage : float;
  detectable_coverage : float;
  patterns_applied : int;
}

let summarise ~width ~patterns_applied results =
  let n_faults = List.length results in
  let n_detected = List.length (List.filter snd results) in
  let n_redundant = n_faults - n_detected in
  let coverage =
    if n_faults = 0 then 1.0
    else float_of_int n_detected /. float_of_int n_faults
  in
  {
    width;
    n_faults;
    n_detected;
    n_redundant;
    coverage;
    (* exhaustive application defines detectability, so this is 1 by
       construction when patterns are exhaustive *)
    detectable_coverage =
      (if n_faults = n_redundant then 1.0
       else float_of_int n_detected /. float_of_int (n_faults - n_redundant));
    patterns_applied;
  }

let fault_list ?(collapse = true) sim seg =
  let c = Simulator.circuit sim in
  let faults = Fault.of_segment c seg in
  if collapse then Fault.collapse c faults else faults

let default_policy () = Fault_engine.Batch.policy ()

let run ?collapse ?policy sim seg =
  let policy =
    match policy with Some p -> p | None -> default_policy ()
  in
  let width = Segment.input_count seg in
  if width > Fault_engine.max_exhaustive_width then
    invalid_arg
      "Pet.run: segment has more than 20 inputs; partition it first (that \
       is what PPET is for)";
  let faults = fault_list ?collapse sim seg in
  let o =
    Fault_engine.Batch.run_segment policy sim seg
      ~patterns:Fault_engine.Batch.Exhaustive faults
  in
  summarise ~width ~patterns_applied:(1 lsl width) o.Fault_engine.Batch.results

let run_with_lfsr ?(extra_cycles = 0) ?policy sim seg =
  let policy =
    match policy with Some p -> p | None -> default_policy ()
  in
  let width = Segment.input_count seg in
  if width > Fault_engine.max_exhaustive_width then
    invalid_arg "Pet.run_with_lfsr: more than 20 inputs";
  if width < 1 then invalid_arg "Pet.run_with_lfsr: segment has no inputs";
  let faults = fault_list sim seg in
  let count = (1 lsl width) + extra_cycles in
  let patterns =
    Fault_engine.Batch.Batches (Fault_engine.lfsr_patterns ~width ~count)
  in
  let o = Fault_engine.Batch.run_segment policy sim seg ~patterns faults in
  summarise ~width ~patterns_applied:count o.Fault_engine.Batch.results

let pp ppf r =
  Format.fprintf ppf
    "width %d: %d/%d faults detected (%.1f%%; %d redundant; detectable \
     coverage %.1f%%) with %d patterns"
    r.width r.n_detected r.n_faults (100.0 *. r.coverage) r.n_redundant
    (100.0 *. r.detectable_coverage)
    r.patterns_applied
