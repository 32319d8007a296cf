(** Static untestable-fault classification for pseudo-exhaustive
    segments (analysis 4).

    A stuck-at fault on a segment is {e statically untestable} when no
    exhaustive pattern can both excite it and propagate the effect to an
    observed signal. The classifier proves one of three sound
    conditions, each valid against exhaustive simulation of the segment
    (the {!Ppet_bist.Fault_sim} semantics: segment input signals driven
    independently through all [2^iota] combinations, members evaluated
    combinationally, detection = any observed signal differs):

    - {b Unexcitable}: the fault site's fault-free value is the stuck
      value on every pattern, so the faulty machine is the good machine.
      Site values come from a segment-local ternary evaluation in which
      every segment input is an independent X — local because the test
      hardware drives inputs exhaustively, including combinations the
      surrounding circuit could never produce, so only equalities
      internal to the segment may be used.
    - {b Unobservable}: no path from the fault site through member gates
      reaches an observed signal; a fault effect cannot leave its
      structural fanout cone.
    - {b Blocked}: for an input-pin fault, the reading gate's ternary
      output is the same constant with the pin forced to 0 and forced
      to 1 (the other pins at their segment-local ternary values), so
      neither polarity of the pin can ever move the gate.

    Anything not proven stays testable — the classifier never
    over-prunes, which the qcheck oracle (untestable implies undetected
    by exhaustive {!Ppet_bist.Fault_sim}) pins at several word widths. *)

type reason = Unexcitable | Unobservable | Blocked

type classification = {
  testable : Ppet_bist.Fault.t list;  (** input order preserved *)
  untestable : (Ppet_bist.Fault.t * reason) list;  (** input order *)
}

type ctx
(** Per-circuit precomputation (BUF/NOT roots, combinational levels) and
    scratch reused across segments. One [ctx] per worker: {!classify}
    mutates the scratch. *)

val ctx : Ppet_netlist.Circuit.t -> ctx

val classify :
  ctx ->
  Ppet_netlist.Segment.t ->
  Ppet_bist.Fault.t list ->
  classification
(** Classify a collapsed fault list of the segment. Faults must be of
    this segment ({!Ppet_bist.Fault.of_segment}, possibly collapsed:
    boundary output faults that collapsing rewrites onto non-member
    drivers are handled). *)

val count : classification -> int * int
(** [(n_testable, n_untestable)]. *)
