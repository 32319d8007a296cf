(** [Make_Group] / [Make_Set] — clustering by congestion-ordered net
    removal (paper Tables 4–7).

    Starting from the most congested distance value, nets with
    [d(e) >= boundary] are removed; the weakly connected components of
    what remains are the candidate clusters. Any cluster whose input
    count exceeds [l_k] is re-split at the next boundary value. The legal
    retiming budget (Eq. 6) is honoured during removal: once a strongly
    connected component has [beta * f] of its nets removed, its remaining
    internal nets become uncuttable ([d := 0], STEP 2.1.2.1 of
    Table 7). *)

type cluster = {
  vertices : int array;     (** member vertex ids, ascending *)
  input_count : int;        (** iota: entering nets + internal PIs *)
  oversize : bool;          (** true when boundaries ran out before the
                                cluster met the input constraint *)
  locked : bool;            (** user-locked region Merced must not touch
                                (Table 5, STEP 2) *)
}

type t = {
  clusters : cluster list;      (** sorted by input count, descending *)
  cluster_of : int array;       (** vertex -> index into [clusters] *)
  removed : bool array;         (** per net: removed during clustering *)
  forced_kept : bool array;     (** per net: protected by Eq. 6 *)
  cuts_used : int array;        (** per SCC component: c(SCC) *)
  boundaries_used : int;        (** how deep into the stack D we went *)
}

val input_count_of :
  Ppet_netlist.Circuit.t -> Ppet_digraph.Netgraph.t -> inside:(int -> bool) ->
  int array -> int
(** iota of an arbitrary vertex set: distinct nets entering from outside
    plus primary inputs among the members (Sec. 2.3, "including primary
    inputs"). *)

val make_group :
  ?locked:(int -> bool) ->
  csr:Ppet_digraph.Csr.t ->
  Ppet_netlist.Circuit.t ->
  Ppet_digraph.Netgraph.t ->
  Ppet_retiming.Scc_budget.t ->
  Flow.result ->
  Params.t ->
  t
(** [locked] (default: nothing) marks vertices the user excludes from
    the BIST conversion: they are gathered into one dedicated cluster
    that is never split (its nets are never removed) and never merged,
    exactly the lock option of the paper's [Make_Set] (Table 5).

    [csr] is a {!Ppet_digraph.Csr.of_netgraph} snapshot of [g]. Pieces
    jump straight to their next effective boundary instead of revisiting
    every boundary value, drained from a heap that replays the paper's
    queue formulation in its exact action order (see the lineage-label
    argument in the implementation). The result — clusters,
    removed/forced nets, cut budgets, boundaries_used — is the queue
    formulation's, which the test suite keeps as the oracle. Raises
    [Invalid_argument] on a size mismatch between [csr] and [g]. *)

val cut_nets : t -> Ppet_digraph.Netgraph.t -> int list
(** Nets whose source and some sink lie in different clusters — the
    final cut set (removed nets that ended up internal to one cluster
    are healed, they need no A_CELL). *)
