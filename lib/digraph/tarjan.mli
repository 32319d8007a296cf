(** Strongly connected components (Tarjan 1972, iterative formulation).

    The paper identifies SCCs (STEP 2 of the Merced pipeline, Table 2) to
    enforce the legal-retiming constraint Eq. (6) on circuit loops. *)

type result = {
  component : int array;  (** vertex -> component id, ids in [0, count) *)
  count : int;            (** number of components *)
  members : int array array;  (** component id -> member vertices *)
}

val run : Netgraph.t -> result
(** Components are numbered in reverse topological order of the condensed
    graph (a net from component [a] to component [b <> a] implies
    [a > b]). Members are listed in ascending vertex order. *)

val of_csr : Csr.t -> result
(** [run] over a snapshot's successor rows, for callers that already
    hold one: they mirror {!Netgraph.successors}, so the numbering is
    the one [run] gives on the source graph. *)

val is_trivial : result -> Netgraph.t -> int -> bool
(** [is_trivial r g c] holds when component [c] is a single vertex without
    a self-loop net, i.e. lies on no cycle. *)

val nontrivial : result -> Netgraph.t -> int list
(** Components that contain at least one cycle, i.e. the circuit loops
    subject to Eq. (6). *)

val net_internal : result -> Netgraph.t -> int -> int option
(** [net_internal r g e] is [Some c] when net [e] has its source and at
    least one sink inside the same component [c] lying on a cycle — a net
    whose cut is restricted by the retiming budget — and [None]
    otherwise. *)
