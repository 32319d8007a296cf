(** Incremental state for move-based partitioners (simulated annealing,
    Fiduccia–Mattheyses).

    Tracks, under single-vertex relabellings: the cut-net count, each
    cluster's entering-net count and internal-PI count (so iota is O(1)),
    in O(degree) per move. *)

type t

val build :
  Ppet_netlist.Circuit.t -> Ppet_digraph.Netgraph.t ->
  labels:int array -> n_clusters:int -> t
(** [labels] is consumed by reference: the state owns and mutates it. *)

val n_clusters : t -> int

val label : t -> int -> int

val iota : t -> int -> int
(** Cluster input count: entering nets + internal PIs. *)

val n_cut : t -> int
(** Nets whose source and some sink lie in different clusters. *)

val move : t -> int -> int -> unit
(** [move t v b] relabels vertex [v] to cluster [b], updating all
    incremental quantities. A no-op when [v] is already in [b]. *)

val penalty : t -> l_k:int -> int
(** Sum over clusters of [max 0 (iota - l_k)] — the input-constraint
    violation the soft-cost partitioners minimise. *)

val move_gain : t -> l_k:int -> lambda:float -> int -> int -> float
(** [move_gain t ~l_k ~lambda v b]: decrease of
    [cuts + lambda * penalty] if [v] moved to [b] (positive = better).
    Implemented as move/measure/undo, O(degree). *)

val to_assign :
  Ppet_netlist.Circuit.t -> Ppet_digraph.Netgraph.t -> Params.t -> t ->
  Assign.t
(** Harvest the current labelling as a partitioning result (empty
    clusters dropped, iotas recomputed, cut nets listed). *)
