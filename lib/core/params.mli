(** Merced parameters (paper Sec. 4.1).

    The published settings are [b = 1], [min_visit = 20], [alpha = 4],
    [delta = 0.01], [beta = 50] (relaxed so [Assign_CBIT] is
    unrestricted), and input constraints [l_k] of 16 (Table 10) or 24
    (Table 11): {!paper}. The product runs at {!default}, which samples
    Saturate_Network with a smaller budget and is otherwise the same. *)

type partitioner =
  | Flow       (** the paper's multicommodity-flow pipeline (Tables 3-7) *)
  | Fm         (** multi-way Fiduccia-Mattheyses ({!Baseline_fm}) *)
  | Annealing  (** simulated annealing ({!Baseline_annealing}) *)
  | Random     (** random seeded growth ({!Baseline_random}) *)
(** Which engine produces the partition assignment. [Flow] is the
    default and the quality reference; the baselines exist for the
    ablation bench and forced [--partitioner] runs. All four produce an
    {!Assign.t} honouring the [l_k] input constraint (baselines may
    leave oversize clusters, marked as such). *)

val partitioner_name : partitioner -> string
val partitioner_of_name : string -> partitioner option

val partitioners : partitioner list
(** All four, [Flow] first. *)

type t = {
  capacity : float;       (** b — net capacity in Saturate_Network *)
  min_visit : int;        (** sampling adequacy threshold *)
  alpha : float;          (** congestion exponent *)
  delta : float;          (** flow quantum per shortest-path tree *)
  beta : int;             (** Eq. 6 loop-cut relaxation factor *)
  l_k : int;              (** input constraint / CBIT length *)
  seed : int64;           (** randomness of the flow injection *)
  max_iterations : int;   (** safety bound on flow-injection rounds *)
  partitioner : partitioner;  (** partition engine (default [Flow]) *)
}

val paper : t
(** The published settings at [l_k = 16]: [b = 1], [min_visit = 20],
    [alpha = 4], [delta = 0.01], [beta = 50]. Every reproduction of a
    paper table runs at these ([{ paper with l_k }] for Table 11), as do
    the partition-shape baselines of [merced bench] and the kernel pins
    of the test suite. *)

val default : t
(** The product setting: {!paper} with a smaller Saturate_Network
    sampling budget, [min_visit = 2]. A primary input has no in-net, so
    only a tree rooted at it counts as its visit, and [min_visit = 20]
    makes every primary input the source of 21 trees — half of the
    trees, and of the flow time, on the large profiles. Over ten flow
    seeds on the seventeen paper profiles and synth10k, the median cut
    nets and Table 12 area at [min_visit = 2] stay inside the range the
    paper budget spans on the same seeds (EXPERIMENTS "flow budget
    band", [bench/flow_band.exe]). Every other field equals {!paper}.
    The CLI, the daemon and the campaign start from this value. *)

val with_lk : int -> t
(** {!default} at another input constraint. *)

val validate : t -> (unit, string) result

val fingerprint : t -> string
(** A stable, injective rendering of every field ([%h] for floats, so no
    two distinct settings collide) — the params half of the serve
    cache key. *)

val pp : Format.formatter -> t -> unit
