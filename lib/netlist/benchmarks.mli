(** Registry of the seventeen ISCAS89 benchmark profiles used in the
    paper's evaluation (Table 9), with the feedback density implied by
    the "DFFs on SCC" column of Table 10.

    The circuits themselves are synthesized by {!Generator} (see
    DESIGN.md, substitution 1); their published statistics — PI, DFF,
    gate and inverter counts and the estimated area — are reproduced
    exactly or near-exactly. *)

type entry = {
  profile : Generator.profile;
  paper_area : float;          (** Table 9 "Estimated Area" *)
  paper_dff_on_scc : int;      (** Table 10 "DFFs on SCC" *)
  in_table11 : bool;           (** whether the paper ran it at l_k = 24 *)
}

val all : entry list
(** All seventeen, in Table 9 order (small to large). *)

val synthetic : entry list
(** Scale-stress profiles beyond the paper's tables ([synth10k],
    [synth100k], [synth1m], named by rough cell count). Not part of
    {!all}/{!names}: they exist to exercise the flat graph core, not to
    reproduce a published row. *)

val synthetic_names : string list

val find : string -> entry
(** Lookup by circuit name, e.g. ["s5378"] or ["synth100k"]; searches
    {!all} then {!synthetic}. Raises [Not_found]. *)

val names : string list
(** The paper benchmarks only (no [synth*] entries). *)

val validate_names : ?flag:string -> string list -> unit
(** Raises {!Circuit.Error} on the first name that is neither ["s27"],
    a paper benchmark, nor a synthetic profile — the circuit lists
    [merced campaign] and [merced bench] accept. [flag] (e.g.
    ["--benchmarks"]) prefixes the message. *)

val circuit : ?seed:int64 -> string -> Circuit.t
(** Generate the synthetic stand-in for the named benchmark. Results are
    cached per (name, seed): repeated calls return the same value. *)

val small : string list
(** Names of circuits below 3000 area units — convenient for tests. *)
