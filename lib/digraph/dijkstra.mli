(** Single-source shortest paths over net distances (STEP 3.2 of the
    modified [Saturate_Network], Table 3).

    Traversing any branch of net [e] costs [dist e >= 0]. The result
    records, for every reachable vertex, the net through which it was
    settled; the set of those nets is the shortest-path tree whose flow
    the saturation procedure increments. *)

type tree = {
  dist : float array;      (** vertex -> distance, [infinity] if unreachable *)
  via : int array;         (** vertex -> settling net id, [-1] for the source
                               and unreachable vertices *)
  tree_nets : int array;   (** distinct nets of the shortest-path tree *)
  decreases : int;         (** decrease-key operations on the heap *)
}

val run : Netgraph.t -> dist:(int -> float) -> src:int -> tree
(** Raises [Invalid_argument] if some net has a negative distance. *)

type workspace
(** Preallocated dist/parent/settled arrays and heap, reusable across
    runs on one graph — the saturation loop's per-call allocations
    removed. *)

val workspace : Netgraph.t -> workspace
(** A workspace sized for [g]'s current node and net counts. *)

val run_into : workspace -> Netgraph.t -> dist:(int -> float) -> src:int -> tree
(** Exactly {!run}, but computing into the workspace: the returned
    tree's [dist] and [via] arrays {e alias the workspace} and are
    only valid until the next [run_into] on it ([tree_nets] is fresh).
    Raises [Invalid_argument] if the workspace is too small for the
    graph (e.g. nets were added after {!workspace}). *)

val path_to : tree -> Netgraph.t -> int -> int list
(** [path_to t g v] is the list of net ids on the tree path from the
    source to [v], source side first. Raises [Not_found] when [v] is
    unreachable. *)

(** The same search over a {!Csr} snapshot, for the saturation loop's
    hot path. It settles the same vertices through the same nets as
    {!run_into}: its binary heap sifts up with [Heap]'s comparisons and
    pops bottom-up into [Heap.pop_min]'s layout, so ties between equal
    distances break the same way. It allocates nothing per run:
    distances are read from a float array, the tree is left in the
    kernel's buffers, and only the vertices the previous run reached
    are reset. *)
module Flat : sig
  type t

  val create : Csr.t -> t
  (** A kernel sized for the snapshot. *)

  val run :
    t -> dist:float array -> hits:int array -> visits:int array -> src:int -> int
  (** [run k ~dist ~hits ~visits ~src] searches from [src], where
      traversing net [e] costs [dist.(e)], and returns the number of
      distinct tree nets: [(tree_nets k).(0 .. count - 1)], in the
      order their vertices settled: the same set as the [tree_nets] of
      [Dijkstra.run] from [src] over the same distances.

      It also does the tree's accounting: each tree net [e] adds 1 to
      [hits.(e)], and 1 to [visits.(v)] for every sink [v] of [e]. The
      kernel only adds to these arrays, never reads them to decide
      anything.

      Raises [Invalid_argument] on a bad source, on a [dist] or [hits]
      shorter than the net count, on a [visits] shorter than the vertex
      count, or on a negative distance. After a negative distance,
      [hits] and [visits] already hold part of the tree's accounting. *)

  val tree_nets : t -> int array
  (** The kernel's tree-net buffer; overwritten by the next {!run}. *)

  val settled : t -> int
  (** Vertices the last {!run} settled: the source and every vertex it
      reaches. The heap took [settled k - 1] pushes. *)

  val decreases : t -> int
  (** Decrease-key operations of the last {!run} that returned: the
      same count as the [decreases] of {!run_into}'s tree. *)
end
