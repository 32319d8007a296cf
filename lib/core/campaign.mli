(** Whole-chip self-test campaigns — the paper's Tables 11/12 loop at
    fleet scale.

    A campaign compiles every requested benchmark profile with Merced,
    then pseudo-exhaustively fault-simulates each partition through
    {!Ppet_bist.Fault_engine.Batch} (multi-word kernel, fault dropping)
    and reports per-circuit coverage, MISR-aliasing bound and
    pipelined testing time. Circuits run concurrently on a
    {!Ppet_parallel.Domain_pool.t}; when only one circuit is requested
    (or the pool has one job) the parallelism falls through to the fault
    partitions inside {!Ppet_bist.Fault_engine.Batch.run} instead —
    nested dispatch degrades to the serial path by design.

    All result fields are deterministic (seeded generation, exhaustive
    patterns, order-independent verdicts); only the [wall_ns] stamps and
    the optional throughput probe vary run to run, which
    [to_json ~normalise:true] zeroes for golden tests. *)

type plan = {
  profiles : string list;
      (** circuit names: ["s27"], the seventeen paper benchmarks, or
          synthetic profiles *)
  params : Params.t;
  words : int;        (** {!Ppet_bist.Fault_engine.Batch.policy} word width *)
  drop : bool;        (** fault dropping ([Drop] when true, [Keep] otherwise) *)
  max_width : int;
      (** segments with more inputs than this are skipped (exhaustive
          bound), mirroring [merced selftest] *)
  min_coverage : float;
      (** [> 0.]: circuits whose testable-fault coverage lands below
          this fail the campaign (CLI exit 1); [0.] disables the gate *)
  prune : bool;
      (** statically classify each segment's faults with
          {!Ppet_analysis.Untestable} and keep provably-untestable ones
          away from the simulator. Per-fault verdicts depend only on the
          fault and the exhaustive patterns, so pruning never changes
          which testable faults detect — it only removes guaranteed
          misses from the workload and the coverage denominator *)
  probe : string option;
      (** measure per-fault-pattern throughput at one word per gate
          visit against [words] on this circuit and record it in the
          report *)
  probe_repeat : int; (** probe timing repetitions (median of) *)
}

val default_plan : plan
(** All seventeen paper profiles, default params, [words = 8], dropping
    on, [max_width] = the default [l_k] (16: every segment Merced
    builds by default is tested), no coverage gate, pruning on, no
    probe. The selftest and submit [--max-width] and
    the serve [selftest] op default to the same width. *)

type circuit_report = {
  circuit : string;
  gates : int;            (** combinational cells *)
  dffs : int;
  segments : int;         (** partitions Merced produced *)
  tested : int;
  skipped : int;          (** iota above [max_width] *)
  n_faults : int;         (** collapsed faults across tested segments *)
  n_untestable : int;     (** statically pruned (0 when [prune] is off) *)
  n_detected : int;
  coverage : float;
      (** detected / (faults - untestable); 1.0 when no testable faults *)
  coverage_raw : float;
      (** detected / faults — the unpruned denominator; 1.0 when no
          faults *)
  aliasing : float;
      (** union bound of per-segment MISR escape probabilities
          (sum of 2^-iota, capped at 1.0) over tested segments *)
  test_cycles : float;    (** pipelined self-test length incl. scan,
                              {!Ppet_bist.Pipeline.total_cycles} *)
  vectors : int;          (** exhaustive vectors applied, sum of 2^iota *)
  word_evals : int;       (** gate-word evaluations the batch engine did *)
  wall_ns : float;        (** compile + simulate wall clock *)
}

type probe_report = {
  probe_circuit : string;
  probe_gates : int;      (** member gates of the probe segment *)
  probe_faults : int;
  probe_batches : int;    (** pattern word batches per run *)
  probe_words : int;      (** multi-word width measured *)
  single_ns : float;      (** median wall ns of the words = 1 run *)
  multi_ns : float;       (** median wall ns at [probe_words] *)
  speedup : float;
      (** single_ns / multi_ns — per-fault-pattern throughput ratio (the
          workload is fixed with dropping off, so wall-clock ratio and
          per-fault-pattern ratio coincide) *)
}

type report = {
  words : int;
  drop : bool;
  max_width : int;
  prune : bool;
  circuits : circuit_report list;  (** in plan profile order *)
  probe : probe_report option;
}

val validate_profiles : string list -> unit
(** Raises [Ppet_netlist.Circuit.Error] when a name is neither ["s27"],
    a paper benchmark, nor a synthetic profile — the CLI maps it to
    exit 2. *)

val run : ?pool:Ppet_parallel.Domain_pool.t -> plan -> report
(** Execute the campaign. Raises [Invalid_argument] on bad knobs
    ([words]/[max_width]/[min_coverage]/[probe_repeat]) and
    [Ppet_netlist.Circuit.Error] on unknown profiles. *)

val below_min : plan -> report -> circuit_report list
(** Circuits whose testable-fault coverage misses [plan.min_coverage]
    (empty when the gate is disabled). *)

val human : report -> string
(** Byte-stable table: one row per circuit plus a totals line. Wall
    clocks and probe timings are deliberately excluded so the daemon op
    and the one-shot CLI render identical bytes (the probe appears as a
    separate line with its measured ratio when present). *)

val to_json : ?normalise:bool -> report -> string
(** The BENCH_campaign.json artefact. [~normalise:true] zeroes every
    timing field ([wall_ns], probe nanoseconds and speedup) for golden
    schema tests. *)
