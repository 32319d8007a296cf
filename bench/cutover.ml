(* Finds the segment size where pooled fault simulation starts
   paying for its dispatch, at the policy's default word width (the
   width every front door runs). *)
module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Benchmarks = Ppet_netlist.Benchmarks
module Prng = Ppet_digraph.Prng
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Domain_pool = Ppet_parallel.Domain_pool
module Bench_stat = Ppet_obs.Bench_stat

let () =
  let c = Benchmarks.circuit "s5378" in
  let sim = Simulator.create c in
  let comb = Circuit.combinational c in
  Printf.printf "%6s %6s %7s %12s %12s %12s %7s %7s\n" "gates" "faults" "batches"
    "serial_us" "pool2_us" "pool4_us" "p2/ser" "p4/ser";
  List.iter
    (fun k ->
      let members = Array.sub comb 0 (min k (Array.length comb)) in
      let seg = Segment.of_members c members in
      let engine = Fault_engine.create sim seg in
      let faults = Fault.collapse c (Fault.of_segment c seg) in
      let n_in = Array.length (Segment.input_signals seg) in
      let rng = Prng.create 0xBE5CL in
      let word () =
        Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
      in
      let n_batches = max 8 (min 256 ((1 lsl (min n_in 14)) / 62)) in
      let patterns =
        Fault_engine.Batch.Batches
          (List.init n_batches (fun _ -> Array.init n_in (fun _ -> word ())))
      in
      let m f = (Bench_stat.measure ~warmup:2 ~repeat:9 f).Bench_stat.median_ns in
      (* cutover 1: always dispatch to the pool when one is supplied —
         this harness IS the measurement that knob is derived from *)
      let policy pool =
        Fault_engine.Batch.policy ?pool ~drop:Fault_engine.Batch.Keep
          ~cutover:1 ()
      in
      let serial =
        m (fun () ->
            ignore (Fault_engine.Batch.run engine (policy None) ~patterns faults))
      in
      let pooled jobs =
        Domain_pool.with_pool ~jobs (fun pool ->
            m (fun () ->
                ignore
                  (Fault_engine.Batch.run engine
                     (policy (Some pool))
                     ~patterns faults)))
      in
      let p2 = pooled 2 and p4 = pooled 4 in
      Printf.printf "%6d %6d %7d %12.1f %12.1f %12.1f %7.2f %7.2f\n" k
        (List.length faults) n_batches (serial /. 1e3) (p2 /. 1e3) (p4 /. 1e3)
        (p2 /. serial) (p4 /. serial))
    [ 16; 32; 64; 96; 128; 192; 256; 384; 512; 1024 ]
