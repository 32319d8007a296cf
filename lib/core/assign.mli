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
  t
(** [csr] is a snapshot of [g]. Each greedy step merges exactly the
    cluster a scan of every live cluster would pick (Table 8 read
    literally; the test suite keeps that scan as its oracle), without
    visiting every live cluster: only a neighbour of the growing
    partition [o] — a cluster that sources a net entering [o], reads a
    net [o] sources, or shares an entering net with [o] — can score
    other than [iota(o) + iota(c)] with no net removed. Neighbours are
    scored from two counters gathered off the CSR sink rows; the best
    of the rest is the lowest-index live cluster of least iota that is
    not a neighbour, kept in per-iota lists. A step therefore costs
    the fanout of the nets entering [o] and of [o]'s own nets plus the
    number of neighbours, whatever the number of live clusters; a net
    of very large fanout that enters [o] is walked at every step.
    Raises [Invalid_argument] on a size mismatch between [csr] and
    [g]. *)
