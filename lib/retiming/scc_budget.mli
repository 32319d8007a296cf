(** Per-SCC register budgets for legal retiming (paper Eq. 6).

    On a circuit loop, retiming cannot change the number of registers
    (Eq. 2), so the number of cut nets chi inside a strongly connected
    component is bounded by its register count f if every cut is to
    receive a functional register; the paper relaxes this to
    [chi <= beta * f] and prices the excess [max 0 (chi - f)] as
    multiplexed A_CELLs (Sec. 2.3). This module computes the static side
    of that accounting over the partition-view graph. *)

type t

val create :
  ?csr:Ppet_digraph.Csr.t -> Ppet_netlist.Circuit.t -> Ppet_digraph.Netgraph.t -> t
(** The graph must be [To_graph.partition_view] of the circuit (vertex
    ids = node ids). A caller holding the graph's CSR snapshot passes
    it, and the components are found over its rows instead of the
    graph's. *)

val scc : t -> Ppet_digraph.Tarjan.result

val n_components : t -> int

val is_loop : t -> int -> bool
(** Whether the component contains a cycle (non-trivial SCC). *)

val registers : t -> int -> int
(** f(component) = flip-flop vertices inside it. *)

val dffs_on_scc : t -> int
(** Total flip-flops sitting on loops — the "DFFs on SCC" column of
    Tables 10/11. *)

val net_scc : t -> int -> int option
(** [net_scc t e] is [Some c] when net [e] is internal to looping
    component [c] (its cut is budget-restricted), [None] otherwise. *)

val cuts_by_scc : t -> int list -> int array
(** Histogram of the given cut nets over components; nets not internal
    to a loop are not counted. *)

val coverable : t -> cuts_on_scc:int array -> cuts_total:int -> int
(** Number of cut nets that legal retiming can equip with an existing
    functional register: all cuts outside loops plus
    [min chi f] inside each loop. *)

val mux_excess : t -> cuts_on_scc:int array -> int
(** Sum over loops of [max 0 (chi - f)] — cut nets needing the
    multiplexed A_CELL of Fig. 3(c). *)
