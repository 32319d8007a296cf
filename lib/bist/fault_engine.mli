(** High-throughput pseudo-exhaustive fault simulation.

    The one fault-simulation entry point of the repo: every consumer
    (Pet, the selftest/campaign ops, the bench harnesses) drives faults
    through {!Batch.run}. The seed re-simulation loop survives only as
    the qcheck differential oracle in {!Fault_sim}.

    Engineered for the scale the evaluation runs at (every partition of
    an s38584-class circuit, all [2^iota] patterns, every collapsed
    fault):

    - {b cone restriction}: for each fault site the transitive fanout
      restricted to segment members is precomputed once (and shared by
      both polarities and all pins of a gate); a faulty evaluation
      touches only those gates instead of the whole segment;
    - {b event-driven early exit}: within the cone, a gate is evaluated
      only when one of its fan-ins carries a faulty word that differs
      from the good value; the walk stops as soon as an observed signal
      differs (detected) or no changed signal has a remaining reader
      (the fault effect converged back to the good machine — undetected
      for this batch);
    - {b word batching}: one flat Bigarray kernel evaluates
      [policy.words = W] pattern words per gate visit, amortising the
      per-gate dispatch (kind decode, fan-in gathering, cone
      bookkeeping) over W words; [W = 1] runs the same kernel;
    - {b fault dropping}: under {!Batch.Drop} a fault detected by one
      word group is retired immediately, so late patterns only simulate
      the surviving (hard or redundant) faults;
    - {b allocation-free steady state}: each worker owns one scratch set
      (good and epoch-stamped faulty value planes) reused across every
      fault and word group;
    - {b deterministic parallelism}: the fault list is sharded into
      contiguous, index-ordered chunks across the domains of a
      {!Ppet_parallel.Domain_pool.t}; each fault's verdict depends only
      on the fault and the patterns, so the merged result is the same
      list the serial path produces — at any word width, job count, or
      dropping policy. *)

type t
(** A fault-simulation engine prepared for one (simulator, segment)
    pair: member topological order, the fault-cone cache, and the flat
    slot/CSR-fan-in view (with per-slot observability and last-reader
    indices) the kernel runs on. *)

val create : Simulator.t -> Ppet_netlist.Segment.t -> t
(** Precompute the per-segment indices. Raises [Invalid_argument] if a
    member is a flip-flop (same contract as {!Fault_sim.segment_detects}). *)

(** {2 Pattern construction}

    A pattern {e batch} assigns one word per segment input signal (order
    of [Segment.input_signals]); bit b of every word belongs to the same
    input vector, [Gate.bits_per_word] vectors per batch.

    The exhaustive sequence — vector v sets input i to bit i of v, for
    v = 0 .. 2^width - 1 — is never materialised: like the CBIT that
    produces it in hardware, the engine derives any word of it from the
    width alone ({!exhaustive_word}), so {!Batch.Exhaustive} costs no
    memory of size 2^width and no work past the word groups the
    simulation actually reaches. Input i is a square wave of period
    2^(i+1). For inputs 0–5 the half period is shorter than a 62-bit
    word, so the wave may flip inside a word more than once; the word
    is then fixed by the phase at which it starts, and a 126-entry
    table holds every phase of the six inputs. From input 6 on the
    half period (64 vectors or more) exceeds a word, so a word is all
    zeros, all ones, or one split mask. *)

val pack_vectors : width:int -> int list -> int array list
(** Pack bit vectors (input i = bit i of each vector) into word batches
    of [Gate.bits_per_word] vectors each, the final batch ragged. One
    pass over the list; {!lfsr_patterns} is built from it. *)

val max_exhaustive_width : int
(** 20: the widest segment an exhaustive run accepts (2^20 vectors,
    16 913 batches). {!Pet.run} and the campaign share this bound. *)

val exhaustive_batches : width:int -> int
(** Number of batches of the exhaustive sequence: [2^width] vectors
    rounded up to whole words ([1] at width 0). *)

val exhaustive_word : width:int -> batch:int -> int -> int
(** [exhaustive_word ~width ~batch i]: the word of input [i] in batch
    [batch] of the exhaustive sequence — bit b is bit i of vector
    [batch * bits_per_word + b], and bits past the last vector of the
    ragged final batch are 0. Constant time; [batch] must be below
    {!exhaustive_batches} and [i] below [width]. *)

val lfsr_patterns : width:int -> count:int -> int array list
(** The first [count] patterns of the standard CBIT LFSR of that width
    (plus the all-zero vector first, which the autonomous LFSR cannot
    produce), packed by {!pack_vectors}. *)

val coverage : (Fault.t * bool) list -> float
(** Detected fraction, in [0, 1]; 1.0 for an empty list. *)

(** {2 The batch interface} *)

module Batch : sig
  type patterns =
    | Exhaustive
        (** all [2^width] vectors of the engine's segment, in counting
            order, each word computed when a kernel is about to simulate
            it (see {!exhaustive_word}). The segment may have at most
            {!max_exhaustive_width} inputs. *)
    | Batches of int array list
        (** explicit batches, for callers that carry real data: LFSR
            sequences, random probe and bench workloads, tests *)

  type drop =
    | Keep  (** simulate every fault against every word group — the
                reference semantics, and the right mode for fixed-work
                throughput probes *)
    | Drop  (** retire a fault as soon as one word group detects it, so
                later patterns only simulate survivors. Verdicts are
                identical to [Keep]; only the work (and wall clock)
                differs. *)

  type policy = {
    words : int;
        (** pattern words evaluated per gate visit, [>= 1]. Every width
            runs the same kernel; verdicts do not depend on it. *)
    pool : Ppet_parallel.Domain_pool.t option;
        (** fault-partition parallelism; [None] (or a 1-job pool) runs
            on the calling domain *)
    drop : drop;
    cutover : int;
        (** segments with fewer member gates than this run serially even
            when a pool is supplied: the pooled dispatch (per-worker
            scratch plus the fork/join barrier) costs more than the
            whole simulation at that size. The CLI, the daemon and the
            campaign all run the {!policy} default, 128 (EXPERIMENTS.md,
            "fault-engine cutover"). *)
  }

  val policy :
    ?words:int ->
    ?pool:Ppet_parallel.Domain_pool.t ->
    ?drop:drop ->
    ?cutover:int ->
    unit ->
    policy
  (** Defaults: [words = 8], no pool, [Drop], [cutover = 128]. Tests
      and [bench/cutover.exe] pass [~cutover:1] to force the pooled
      path on any segment. *)

  type outcome = {
    results : (Fault.t * bool) list;
        (** every fault with its verdict, input order *)
    n_faults : int;
    n_detected : int;
    coverage : float;  (** detected fraction; 1.0 when no faults *)
    batches : int;
        (** pattern word batches offered (simulated or not: dropping
            may stop early) *)
    word_evals : int;
        (** gate-word evaluations actually performed (good re-simulation
            plus event-driven faulty evaluations, summed over workers) —
            the work the dropping policy and word width save is visible
            here *)
  }

  val run : t -> policy -> patterns:patterns -> Fault.t list -> outcome
  (** Simulate the faults against the pattern source. Verdicts are
      bit-identical across every policy: word width, job count, and
      dropping only change the wall clock; and [Exhaustive] gives the
      verdicts of the same vectors passed as [Batches]. Raises
      [Invalid_argument] on a batch arity mismatch, an [Exhaustive]
      segment wider than {!max_exhaustive_width}, or a non-positive
      [words]/[cutover]. *)

  val run_segment :
    policy ->
    Simulator.t ->
    Ppet_netlist.Segment.t ->
    patterns:patterns ->
    Fault.t list ->
    outcome
  (** One-shot convenience: {!create} + {!run}. Prefer building the
      engine once when simulating the same segment repeatedly. *)
end
