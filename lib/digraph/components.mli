(** Weakly connected components under a net filter.

    The clustering pass of the paper (Tables 4-6) removes the most
    congested nets and takes the remaining weakly connected pieces as
    candidate clusters; this module provides that primitive. *)

type partition = {
  cluster : int array;        (** vertex -> cluster id in [0, count) *)
  count : int;
  members : int array array;  (** cluster id -> member vertices *)
}

val weak : Netgraph.t -> keep:(int -> bool) -> partition
(** [weak g ~keep] groups vertices connected (ignoring direction) through
    nets satisfying [keep]. Vertices touched by no kept net form singleton
    clusters. Cluster ids are assigned by smallest member vertex. *)

val restrict_csr :
  Csr.t -> Csr.workspace -> vertices:int array -> keep:(int -> bool) ->
  int array array
(** [restrict_csr csr ws ~vertices ~keep] computes weak components of
    the subgraph induced by [vertices], connecting only through kept
    nets whose source and sink both lie inside [vertices]. It touches
    only the piece's own out-nets: O(piece + its pins) per call. Pieces
    are numbered by their first vertex in [vertices], and each lists
    its members in [vertices] order. The workspace must belong to
    [csr]. *)

val cut_nets : Netgraph.t -> int array -> int list
(** [cut_nets g cluster_of] lists nets whose source and some sink lie in
    different clusters of the given vertex labelling. *)
