(** [Assign_CBIT] — greedy merging of small clusters into full-width
    CBITs (paper Table 8, Sec. 3.2).

    The per-bit CBIT cost falls with length (Table 1 / Fig. 4), so
    packing several small clusters behind one l_k-wide CBIT beats giving
    each its own small tester. The gain of a merge is
    [gamma = l_k - iota(merged)] (Eq. 7); among equal gains the merge
    removing more shared cut nets wins. *)

type partition = {
  vertices : int array;
  input_count : int;
  merged_from : int;   (** how many Make_Group clusters it absorbs *)
  oversize : bool;
  locked : bool;       (** user-locked region, kept out of the merge *)
}

type t = {
  partitions : partition list;  (** final CUTs, largest iota first *)
  partition_of : int array;     (** vertex -> index into [partitions] *)
  cut_nets : int list;          (** nets crossing partitions *)
  merges : int;                 (** total merge operations performed *)
}

val run :
  csr:Ppet_digraph.Csr.t ->
  Ppet_netlist.Circuit.t ->
  Ppet_digraph.Netgraph.t ->
  Cluster.t ->
  Params.t ->
  Ppet_digraph.Prng.t ->
  t
(** [csr] is a snapshot of [g]: membership is an owner array, scoring
    sweeps stamped entering-net arrays, with no hashing and no
    allocation per scored candidate.

    When more than [max_merge_candidates] clusters remain, each greedy
    step scores a deterministic random sample of that size (plus the
    smallest clusters, which are the likeliest mergees) instead of the
    whole list — the quality/speed knob documented in Params. The
    sample is a partial Fisher-Yates costing only the draws it keeps.
    The cap is not a corner case: at [l_k = 16] the s5378 profile
    already forms ~2 000 clusters, s38417 ~15 000. Below the cap the
    result equals the hashtable formulation the test suite keeps as
    its oracle. Raises [Invalid_argument] on a size mismatch between
    [csr] and [g]. *)
