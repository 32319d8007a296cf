(** Whole-chip self-test campaigns — the paper's Tables 11/12 loop at
    fleet scale.

    A campaign compiles every requested benchmark profile with Merced,
    statically prunes each partition's provably-untestable faults
    ({!Ppet_analysis.Untestable}), then pseudo-exhaustively
    fault-simulates the rest through {!Ppet_bist.Fault_engine.Batch}
    (multi-word kernel, fault dropping) and reports per-circuit
    coverage, MISR-aliasing bound and pipelined testing time. Circuits
    run concurrently on a {!Ppet_parallel.Domain_pool.t}; when only one
    circuit is requested (or the pool has one job) the parallelism falls
    through to the fault partitions inside
    {!Ppet_bist.Fault_engine.Batch.run} instead — nested dispatch
    degrades to the serial path by design.

    All result fields are deterministic (seeded generation, exhaustive
    patterns, order-independent verdicts); only the [wall_ns] stamps
    vary run to run, which [to_json ~normalise:true] zeroes for golden
    tests. *)

type plan = {
  profiles : string list;
      (** circuit names: ["s27"], the seventeen paper benchmarks, or
          synthetic profiles *)
  params : Params.t;
  words : int;
      (** {!Ppet_bist.Fault_engine.Batch.policy} word width; no front
          door sets it, so every campaign runs [default_plan]'s 8 *)
  max_width : int;
      (** segments with more inputs than this are skipped (exhaustive
          bound), mirroring [merced selftest] *)
  min_coverage : float;
      (** [> 0.]: circuits whose testable-fault coverage lands below
          this fail the campaign (CLI exit 1); [0.] disables the gate *)
}

val default_plan : plan
(** All seventeen paper profiles, default params, [words = 8],
    [max_width] = the default [l_k] (16: every segment Merced builds by
    default is tested), no coverage gate. The selftest and submit
    [--max-width] and the serve [selftest] op default to the same
    width. *)

type circuit_report = {
  circuit : string;
  gates : int;            (** combinational cells *)
  dffs : int;
  segments : int;         (** partitions Merced produced *)
  tested : int;
  skipped : int;          (** iota above [max_width] *)
  n_faults : int;         (** collapsed faults across tested segments *)
  n_untestable : int;
      (** statically pruned: provably undetectable, never simulated.
          Verdicts are per fault, so pruning changes no detected count,
          only the workload and the [coverage] denominator *)
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

type report = {
  words : int;
  max_width : int;
  circuits : circuit_report list;  (** in plan profile order *)
}

val run : ?pool:Ppet_parallel.Domain_pool.t -> plan -> report
(** Execute the campaign. Raises [Invalid_argument] on bad knobs
    ([words]/[max_width]/[min_coverage]) and
    [Ppet_netlist.Circuit.Error] on unknown profiles
    ({!Ppet_netlist.Benchmarks.validate_names}). *)

val below_min : plan -> report -> circuit_report list
(** Circuits whose testable-fault coverage misses [plan.min_coverage]
    (empty when the gate is disabled). *)

val human : report -> string
(** Byte-stable table: one row per circuit plus a totals line. Wall
    clocks are deliberately excluded so the daemon op and the one-shot
    CLI render identical bytes. *)

val to_json : ?normalise:bool -> report -> string
(** The BENCH_campaign.json artefact. [~normalise:true] zeroes the
    [wall_ns] timings for golden schema tests. *)
