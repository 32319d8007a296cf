(** Signature-based fault diagnosis.

    A BIST signature tells pass/fail; for debug one wants to know {e
    which} fault failed. Because the whole pseudo-exhaustive session is
    deterministic, every modelled fault maps to one signature — a fault
    dictionary. Looking up the observed signature returns the candidate
    faults (several faults may be signature-equivalent; the dictionary
    groups them). *)

type dictionary

val build :
  Simulator.t ->
  Ppet_netlist.Segment.t ->
  misr_width:int ->
  Fault.t list ->
  dictionary
(** Simulate the full exhaustive pattern set once per fault, compressing
    the observed responses into a [misr_width]-bit signature. Segment
    width is capped at 16, below {!Pet.run}'s 20: the dictionary
    simulates one pattern at a time, not 62 per word. *)

val fault_free : dictionary -> int
(** The good-machine signature. *)

val lookup : dictionary -> int -> Fault.t list
(** Candidate faults for an observed signature; empty for an unknown
    signature (a fault outside the modelled list, or multiple faults). *)

val distinguishable_classes : dictionary -> int
(** Number of distinct faulty signatures — the dictionary's diagnostic
    resolution. *)

val undiagnosable : dictionary -> Fault.t list
(** Faults whose signature equals the fault-free one: redundant faults
    plus (rare) MISR aliasing victims. *)

val resolution : dictionary -> float
(** [distinguishable_classes / detected faults] in (0, 1]; 1.0 means
    every detected fault has a unique signature. 0.0 when nothing is
    detected. *)
