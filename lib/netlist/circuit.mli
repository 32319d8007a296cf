(** Gate-level synchronous circuit netlist.

    A circuit is a set of named nodes (primary inputs, combinational gates,
    D flip-flops), a list of primary outputs referring to node signals, and
    the derived fanout index. Nodes are densely numbered; the node id
    doubles as the vertex id of every graph extracted from the circuit.

    Build circuits through {!Builder}, which permits ISCAS89-style forward
    references and validates the result (defined signals, legal arities,
    no purely combinational cycles), or through {!of_nodes} when every
    node id is known up front. *)

type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;  (** driver node ids, in declaration order *)
}

type t = private {
  title : string;
  nodes : node array;
  inputs : int array;    (** PI node ids, in declaration order *)
  outputs : int array;   (** PO node ids, in declaration order *)
  fanouts : int array array;  (** node id -> sink node ids (with duplicates
                                  when a sink reads the signal twice) *)
}

exception Error of string
(** Raised on malformed circuits with a human-readable reason. *)

val of_nodes : title:string -> node array -> outputs:int array -> t
(** [of_nodes ~title nodes ~outputs] with [nodes.(i).id = i] and fanins
    and outputs given as node ids. Makes every check {!Builder.finish}
    makes, with the same messages where a name is known: no nodes,
    duplicate signal names, fanins outside the node array, illegal
    arities, neither primary inputs nor flip-flops, output ids outside
    the node array, and combinational cycles; also a node whose id is
    not its position. Raises {!Error}. *)

module Builder : sig
  type circuit := t
  type t

  val create : string -> t
  (** [create title] starts an empty netlist. *)

  val add_input : t -> string -> unit

  val add_output : t -> string -> unit
  (** The signal may be declared later (forward reference). *)

  val add_gate : t -> name:string -> kind:Gate.kind -> fanins:string list -> unit
  (** Raises {!Error} on duplicate signal definition or on [kind] being
      [Input] (use [add_input]). *)

  val finish : t -> circuit
  (** Resolves names, checks every referenced signal is defined, arities
      are legal, at least one PI or DFF exists, and there is no
      combinational cycle. Raises {!Error} otherwise. *)
end

val find : t -> string -> int
(** Node id by signal name, by a scan over the nodes. Raises
    [Not_found]. *)

val name_index : t -> string -> int option
(** [name_index c] hashes every signal name once and returns the
    lookup: [name_index c name] is [Some (find c name)], or [None] where
    {!find} raises. Apply it to [c] once and keep the function when
    looking up many names. *)

val node : t -> int -> node

val size : t -> int
(** Total number of nodes. *)

val dffs : t -> int array
(** Ids of all flip-flops, ascending. *)

val combinational : t -> int array
(** Ids of all combinational gates (excludes PIs and DFFs), ascending. *)

val is_po : t -> int -> bool

val area : t -> float
(** Estimated area of the circuit in the paper's units (Table 9, last
    column): sum of {!Gate.area} over all nodes. *)

val equal : t -> t -> bool
(** Structural equality up to node renumbering: the same signal names
    with the same kinds and positional fan-in names, and identical PI/PO
    declaration order. Titles are ignored (parsing a written netlist
    yields the file's title, not the original's). *)

val levels : t -> int array
(** Combinational depth of every node: PIs and DFF outputs are level 0;
    a gate's level is 1 + max over fanins. DFF data inputs do not
    propagate (registers break the cycles). *)

val pp : Format.formatter -> t -> unit
