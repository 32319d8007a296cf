(* Scratch harness for the campaign probe: times the fault kernel on
   the largest Merced cluster of a benchmark profile across word
   widths. Not part of any alias. *)

module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Merced = Ppet_core.Merced
module Params = Ppet_core.Params
module Prng = Ppet_digraph.Prng
module Bench_stat = Ppet_obs.Bench_stat

let () =
  let name = try Sys.argv.(1) with _ -> "synth10k" in
  let e = Benchmarks.find name in
  let c = Generator.generate ~seed:0x5EEDL e.Benchmarks.profile in
  let r = Merced.run ~params:Params.default c in
  let segs = Merced.segments r in
  let seg =
    List.fold_left
      (fun best s ->
        if Array.length s.Segment.members > Array.length best.Segment.members
        then s
        else best)
      (List.hd segs) segs
  in
  let sim = Simulator.create c in
  let faults = Fault.collapse c (Fault.of_segment c seg) in
  let n_in = Array.length (Segment.input_signals seg) in
  let rng = Prng.create 0xBE5CL in
  let word () =
    Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
  in
  let patterns =
    Batch.Batches (List.init 64 (fun _ -> Array.init n_in (fun _ -> word ())))
  in
  let engine = Fault_engine.create sim seg in
  Printf.printf "segment: %d members, %d inputs, %d observed, %d faults\n"
    (Array.length seg.Segment.members)
    n_in
    (Array.length seg.Segment.observed)
    (List.length faults);
  let baseline = ref 0.0 in
  List.iter
    (fun words ->
      let pol = Batch.policy ~words ~drop:Batch.Keep () in
      let o = ref None in
      let st =
        Bench_stat.measure ~repeat:11 (fun () ->
            o := Some (Batch.run engine pol ~patterns faults))
      in
      let o = Option.get !o in
      if words = 1 then baseline := st.Bench_stat.median_ns;
      Printf.printf
        "words %2d: %8.3f ms  word_evals %9d  detected %d/%d  speedup %.1fx\n"
        words
        (st.Bench_stat.median_ns /. 1e6)
        o.Batch.word_evals o.Batch.n_detected o.Batch.n_faults
        (!baseline /. st.Bench_stat.median_ns))
    [ 1; 2; 4; 8; 16; 32; 62 ]
