(** Modified [Saturate_Network] — probabilistic multicommodity-flow
    congestion estimation (paper Table 3, after Yeh/Cheng/Lin ICCAD'92).

    Random shortest-path trees inject flow; a net's distance grows
    exponentially with its accumulated flow, so nets that many
    source-sink commodities must share (the strongly connected cores of
    the circuit) end up with high distances — they are the natural places
    to cut. The [visit] index enforces fair sampling: the loop runs until
    every vertex has taken part in at least [min_visit] trees.

    Deviation from the paper's pseudo-code, documented in DESIGN.md: a
    vertex's visit counter advances both when it is picked as the source
    and when a tree reaches it (the literal source-only reading needs
    O(min_visit x |V|) Dijkstra runs, irreconcilable with the CPU times
    of Table 10), and sources are drawn uniformly from the under-visited
    vertices, which is what "fair sampling" demands.

    A vertex without in-nets (a primary input) is reached by no tree,
    so only the trees it roots count as its visits: each one costs
    [min_visit + 1] trees ([flow.inputless_trees]). At the paper's
    [min_visit = 20] ({!Params.paper}) that is about half of all trees
    on the large profiles. The product default ({!Params.default})
    samples with [min_visit = 2], ~7x fewer trees, after a ten-seed band
    showed no loss of cut nets or Table 12 area (EXPERIMENTS "flow
    budget band"). *)

type result = {
  distance : float array;  (** per net: exp(alpha * flow / cap) *)
  flow : float array;      (** per net: accumulated flow *)
  visits : int array;      (** per vertex *)
  iterations : int;        (** shortest-path trees computed *)
}

val saturate : Ppet_digraph.Csr.t -> Params.t -> Ppet_digraph.Prng.t -> result
(** Runs until every vertex reaches [min_visit] visits or
    [max_iterations] trees have been injected.

    The trees run on {!Ppet_digraph.Dijkstra.Flat} over the snapshot,
    which also counts each tree net's hit and its sinks' visits; each
    net's new flow and distance are read from tables indexed by how
    many trees have used it, so the loop allocates nothing per tree.
    Records the [Flow_tree_nets], [Flow_settled], [Flow_inputless_trees],
    [Flow_decreases] and [Flow_iterations] counters. *)

val boundaries : result -> float list
(** Distinct distance values, descending — the stack D of Table 4. *)
