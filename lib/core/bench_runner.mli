(** Pipeline regression sweep behind [merced bench].

    Times each compiler phase — benchmark generation, network flow
    saturation, clustering, partition assignment, the retiming
    certificate solve, and cone-restricted fault simulation at one and
    at [plan.jobs] workers — on a list of registry benchmarks, and
    returns the median/MAD rows the BENCH_pipeline.json artefact is
    built from (see {!Report.bench_json}). *)

type plan = {
  benchmarks : string list;  (** registry names, plus the literal "s27" *)
  repeat : int;              (** timed samples per phase, >= 1 *)
  jobs : int;                (** worker count of the parallel fault-sim entry *)
}

val default_plan : plan
(** s27, s510, s420.1, s641 at [repeat = 5], [jobs = 2]. *)

val fault_workload :
  Ppet_netlist.Circuit.t ->
  Ppet_bist.Simulator.t ->
  (Ppet_bist.Fault_engine.t
  * Ppet_bist.Fault_engine.Batch.patterns
  * Ppet_bist.Fault.t list)
  option
(** The workload of the [fault_sim*] rows: the (up to) 400 lowest-id
    combinational gates as one segment, its collapsed faults, and eight
    word batches from a fixed PRNG stream. [None] when the circuit has
    no combinational gate. *)

val entry_names : plan -> Report.bench_entry list
(** The rows {!run} would measure, in order, with [median_ns]/[mad_ns]
    zeroed — the [--dry-run] view. Fault-sim rows appear once per
    worker count; a benchmark with no combinational gate skips them. *)

val run : ?progress:(string -> unit) -> plan -> Report.bench_entry list
(** Measure every phase of every benchmark in [plan]. [progress] (if
    given) is called with each entry name before it is measured. *)
