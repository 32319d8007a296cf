(** Materialise a retiming graph back into a gate-level netlist.

    The collapsed graph carries registers per input pin, so a flip-flop
    shared by several readers appears on several edges; emission undoes
    the duplication where the initial values allow: out-edges of the same
    driver share one register chain when their init lists agree
    prefix-wise (an X agrees with nothing, not even another X: it is an
    unknown but specific value), so a round trip
    [of_circuit |> circuit_of] restores the original register count for
    untouched graphs.

    Because netlists cannot express unknown reset values, the emitted
    flip-flop initial states are returned alongside; feed them back to
    [Rgraph.of_circuit ~init] for 3-valued co-simulation, or treat X as
    "scan chain will initialise this bit" in hardware. *)

type emitted = {
  circuit : Ppet_netlist.Circuit.t;
  register_inits : (string * Logic3.t) list;
      (** emitted DFF name -> initial value *)
}

val circuit_of : ?title:string -> Rgraph.t -> emitted
(** Gate vertices keep their names; new register chains are named
    ["<driver>__r<k>"]. Primary outputs keep their driving vertex's name
    when the host edge has no registers, and end the register chain
    otherwise (the PO is then the last register's name... which is the
    chain name). Raises [Invalid_argument] on graphs whose invariants
    fail ({!Rgraph.check_invariants}). *)

val init_fn : emitted -> int -> Logic3.t
(** Lookup usable as [Rgraph.of_circuit ~init] for the emitted circuit
    (by node id; non-register ids map to X). *)
