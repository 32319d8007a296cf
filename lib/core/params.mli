(** Merced parameters (paper Sec. 4.1).

    The published settings are [b = 1], [min_visit = 20], [alpha = 4],
    [delta = 0.01], [beta = 50] (relaxed so [Assign_CBIT] is
    unrestricted), and input constraints [l_k] of 16 (Table 10) or 24
    (Table 11). *)

type partitioner =
  | Flow       (** the paper's multicommodity-flow pipeline (Tables 3-7) *)
  | Fm         (** multi-way Fiduccia-Mattheyses ({!Baseline_fm}) *)
  | Annealing  (** simulated annealing ({!Baseline_annealing}) *)
  | Random     (** random seeded growth ({!Baseline_random}) *)
(** Which engine produces the partition assignment. [Flow] is the
    default and the quality reference; the baselines exist for the
    ablation bench and for cost-driven dispatch on circuits where the
    flow saturation dominates the wall clock. All four produce an
    {!Assign.t} honouring the [l_k] input constraint (baselines may
    leave oversize clusters, marked as such). *)

val partitioner_name : partitioner -> string
val partitioner_of_name : string -> partitioner option

val partitioners : partitioner list
(** All four, [Flow] first — the forced-mode sweep of
    [merced bench --compare] iterates this list. *)

type t = {
  capacity : float;       (** b — net capacity in Saturate_Network *)
  min_visit : int;        (** sampling adequacy threshold *)
  alpha : float;          (** congestion exponent *)
  delta : float;          (** flow quantum per shortest-path tree *)
  beta : int;             (** Eq. 6 loop-cut relaxation factor *)
  l_k : int;              (** input constraint / CBIT length *)
  seed : int64;           (** randomness of the flow injection *)
  max_iterations : int;   (** safety bound on flow-injection rounds *)
  max_merge_candidates : int;
      (** Assign_CBIT candidate scan cap per step (quality/speed knob) *)
  fault_cutover : int;
      (** fault-simulation segments with fewer member gates than this
          run serially even when a pool is supplied (default 128, the
          measured knee — see EXPERIMENTS.md "fault-engine cutover").
          Threaded into [Fault_engine.Batch.policy.cutover]; results are
          identical at any value, only the wall clock moves. *)
  partitioner : partitioner;
      (** partition engine (default [Flow]). Unlike the perf-only knobs
          this changes the compile result, so it is part of
          {!fingerprint}. *)
}

val default : t
(** Paper settings with [l_k = 16]. *)

val with_lk : int -> t
(** Paper settings at another input constraint. *)

val validate : t -> (unit, string) result

val fingerprint : t -> string
(** A stable, injective rendering of every field ([%h] for floats, so no
    two distinct settings collide) — the params half of the serve
    cache key. *)

val pp : Format.formatter -> t -> unit
