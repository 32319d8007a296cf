(** Structured tracing and metrics for the Merced pipeline.

    A {!t} is a passive event collector. Nothing records until a trace
    is {!install}ed; the disabled path is one atomic load and a branch —
    no closure, no allocation — so instrumented hot paths cost nothing
    in normal operation. Recording is domain-safe: events carry the
    worker id {!Ppet_parallel.Domain_pool} assigns via {!with_worker},
    so per-worker streams stay ordered even when wall-clock interleaves.

    Rendering lives in {!Export} (human tree and Chrome [trace_event]
    JSON); summary statistics for benchmarks live in {!Bench_stat}. *)

(** The closed vocabulary of pipeline counters. A closed variant keeps
    call sites typo-proof and exporters exhaustive: adding a metric is a
    compile-time event, not a stringly convention. *)
module Metric : sig
  type t =
    | Flow_iterations        (** shortest-path trees injected by [Flow.saturate] *)
    | Flow_tree_nets         (** nets relaxed across all injected trees *)
    | Flow_settled           (** vertices settled across all injected trees *)
    | Flow_decreases         (** heap decrease-keys across all injected
                                 trees. Pops are [flow.settled] and pushes
                                 [flow.settled - flow.iterations] (a
                                 source is placed, not pushed), so this
                                 completes the heap-operation count *)
    | Flow_inputless_trees   (** injected trees whose source has no
                                 in-net. No other tree reaches such a
                                 vertex (a primary input), so
                                 [min_visit] forces [min_visit + 1] trees
                                 through each; the rest of
                                 [flow.iterations] sample the graph *)
    | Bf_relaxations         (** Bellman–Ford relax steps in [Retime.solve] *)
    | Retime_required_kept   (** register requirements retained by the solver *)
    | Retime_required_dropped(** requirements dropped on over-constrained loops *)
    | Clusters_formed        (** clusters out of [Cluster.make_group] *)
    | Partitions_formed      (** partitions out of [Assign.run] *)
    | Faults_simulated       (** faults fed to [Fault_engine.Batch.run] *)
    | Fault_patterns         (** test patterns (words x batches) per batch run *)
    | Fault_word_evals       (** gate-word evaluations a batch run performed *)
    | Campaign_circuits      (** circuits completed by a campaign run *)
    | Lint_rules_fired       (** lint rules evaluated *)
    | Lint_findings          (** error+warning diagnostics produced *)
    | Pool_dispatches        (** [Domain_pool.run] dispatches *)
    | Pool_busy_ns           (** nanoseconds a worker spent inside a task *)

  val name : t -> string
  (** Stable dotted name, e.g. ["flow.iterations"]. *)

  val all : t list
  (** Every metric, in rendering order. *)
end

type event =
  | Begin of { name : string; tid : int; ts : int64; minor_words : float }
  | End of { tid : int; ts : int64; minor_words : float }
  | Count of { metric : Metric.t; tid : int; ts : int64; value : int }
  | Gauge of { name : string; tid : int; ts : int64; value : float }
      (** Timestamps are nanoseconds from the trace clock; [minor_words]
          is the recording domain's [Gc.minor_words] at the instant, so
          span alloc deltas come for free. [tid] is the worker id. *)

type t

val create : ?clock:(unit -> int64) -> unit -> t
(** A fresh, empty trace. [clock] (default: wall clock in nanoseconds)
    is injectable so tests produce deterministic timestamps. *)

val install : t -> unit
(** Make [t] the process-wide recording sink. *)

val uninstall : unit -> unit

val enabled : unit -> bool
(** Whether any trace is installed — the guard every recording primitive
    applies itself. *)

val with_installed : t -> (unit -> 'a) -> 'a
(** [install], run, [uninstall] (also on exceptions). *)

val with_scoped : t -> (unit -> 'a) -> 'a
(** [with_scoped t f] runs [f] with [t] as this domain's recording
    sink, overriding (and afterwards restoring) whatever {!install} set
    process-wide. The serve daemon uses this to give each in-flight job
    its own trace even though many jobs share the process. The scope is
    domain-local: work [f] dispatches onto other domains records to
    those domains' own scopes (or the global sink). *)

val current : unit -> t option
(** The effective trace — this domain's scope if one is set, else the
    installed one — for callers that need its clock. *)

val events : t -> event list
(** Events in recording order. *)

val now : t -> int64
(** The trace's clock. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f] with [Begin]/[End] events (ended on
    exceptions too). When disabled it is exactly [f ()]. *)

val add : Metric.t -> int -> unit
(** Bump a counter. Call sites accumulate locally and add once per
    phase, so the disabled cost on hot paths is a single branch at the
    call boundary, not per iteration. *)

val gauge : string -> float -> unit
(** Record a point-in-time measurement, e.g. ["merced.cuts_total"]. *)

val worker : unit -> int
(** This domain's worker id (0 outside a pool task). *)

val with_worker : int -> (unit -> 'a) -> 'a
(** Run a pool task attributed to the given worker id; restores the
    previous id afterwards. Used by {!Ppet_parallel.Domain_pool}. *)
