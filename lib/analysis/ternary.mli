(** Ternary constant propagation and X-propagation (analyses 1 and 2).

    {b Constants.} Values live in the three-point domain
    [{Zero, One, Unknown}] ordered by information
    ([Unknown] below both constants). The .bench vocabulary has no tied
    cells, so constants are structural: an XOR that reads the same
    signal through both pins, an AND that reads a signal and its own
    inverse, and everything such a net dominates downstream. The
    transfer canonicalises every fan-in to a (root, parity) pair by
    chasing BUF/NOT chains, so a gate recognises equal and complementary
    fan-ins even through inverter trees.

    Flip-flops transfer their data input: a computed constant on a
    register means {e steady state} — from the first clock after the
    driving cone settles; the power-on value of the register itself is
    still arbitrary. Consumers that need per-cycle truth (the untestable
    classifier) work on combinational segments only, where the caveat is
    vacuous.

    {b X-propagation.} [initializable] computes the set of nodes whose
    value is eventually a function of the primary inputs alone: primary
    inputs are, a gate is when all its fan-ins are, a register is when
    its data input is, and a proven-constant net is. Everything outside
    the set may in principle never leave X after power-on (no
    initializing path) — an over-approximation, reported only as
    advisory lint. *)

type value = Zero | One | Unknown

val zero : int
val one : int
val unknown : int
(** The packed encoding used in result arrays: [zero = 0], [one = 1],
    [unknown = 2]. *)

val value_of_int : int -> value

type roots = { root : int array; parity : int array }
(** Per-node canonical signal: [root] is the node reached by chasing
    BUF/NOT fan-ins until a non-inverter, [parity] is 1 when the chase
    crossed an odd number of NOTs. *)

val roots : Ppet_netlist.Circuit.t -> roots

val eval_node :
  kind:Ppet_netlist.Gate.kind ->
  arity:int ->
  value:(int -> int) ->
  root:(int -> int) ->
  parity:(int -> int) ->
  int
(** One ternary gate transfer over abstract pins: [value i] the packed
    ternary value of pin [i], [root i]/[parity i] its canonical signal.
    A negative root marks an independent pin that never pairs with
    another — how the untestable classifier injects a forced pin. *)

val eval :
  Ppet_netlist.Circuit.t ->
  roots ->
  (int -> int) ->
  int ->
  int
(** [eval c r get v]: one monotone ternary transfer — [v]'s value from
    its fan-ins, with equal/complementary fan-in refinement. Each
    fan-in is read through its canonical signal: [get] of its root,
    negated when the chain parity is odd, so two pins on one root can
    never disagree mid-solve and every vertex changes at most once.
    Primary inputs are [unknown]; flip-flops pass their data input
    through. *)

val constants :
  ?pool:Ppet_parallel.Domain_pool.t ->
  Dataflow.t ->
  Ppet_netlist.Circuit.t ->
  int array
(** Whole-circuit least fixpoint of {!eval} (the schedule must come from
    the circuit's partition view, whose vertex ids are node ids). *)

val initializable :
  ?pool:Ppet_parallel.Domain_pool.t ->
  Dataflow.t ->
  Ppet_netlist.Circuit.t ->
  constants:int array ->
  bool array
(** [true] = provably driven by the primary inputs eventually; [false]
    = may stay X forever. *)
