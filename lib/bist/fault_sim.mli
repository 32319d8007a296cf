(** The seed fault simulator — kept only as the differential oracle.

    For each fault the whole segment is re-simulated against the good
    machine, one word batch at a time; a fault is detected when any
    observed signal differs in any bit position. Quadratic and slow by
    design: the qcheck differential properties check the production
    {!Fault_engine.Batch} kernel (at several word widths, dropped or
    not, at any job count) bit-for-bit against this loop. Production
    code must go through {!Fault_engine.Batch.run}. *)

val segment_detects :
  Simulator.t ->
  Ppet_netlist.Segment.t ->
  patterns:int array list ->
  Fault.t list ->
  (Fault.t * bool) list
(** [segment_detects sim seg ~patterns faults]: each element of
    [patterns] is a batch assigning one word per segment input signal
    (order of [Segment.input_signals]). Observation points are the
    segment's [observed] nodes. Returns each fault with its detection
    verdict over all batches. *)
