(** Legal retiming (paper Sec. 2.2, after Leiserson & Saxe).

    A retiming is an integer lag [rho] per combinational vertex (primary
    inputs and the host are pinned at 0: the paper's rho maps C to Z).
    Edge [e = u -> v] gets the new weight
    [w_rho e = weight e + rho v - rho u] (Eq. 1); legality demands
    [w_rho e >= 0] everywhere (Eq. 3), and cycles keep their register
    count automatically (Eq. 2).

    [solve] finds a legal retiming meeting per-edge minimum register
    requirements by solving the difference-constraint system
    [rho u - rho v <= weight e - require e] with Bellman–Ford;
    infeasibility is reported as the set of vertices on some
    over-constrained cycle — exactly the loops whose cut count exceeds
    their register count (chi > f), which the cost model then prices as
    multiplexed A_CELLs. *)

type outcome =
  | Feasible of int array      (** rho per vertex; pinned vertices at 0 *)
  | Infeasible of int list     (** vertices of a negative-weight cycle *)

val solve : Rgraph.t -> require:(int -> int) -> outcome
(** [solve g ~require] with [require e >= 0] the minimum number of
    registers wanted on edge [e] after retiming. Use [require = fun _ -> 0]
    to merely re-check legality of the identity. *)

(** Flat-array solver over the same constraint system, for re-solve
    loops. [create] builds the constraint arcs once as int CSR arrays;
    each [run] reuses them plus preallocated scratch, so only the arc
    lengths ([weight - require]) are recomputed per call.

    Agreement with {!solve}: feasibility always coincides, and on
    feasible systems a cold [run] returns the identical rho (both
    compute the canonical shortest-path fixpoint of the all-zero
    start). On infeasible systems both report a true over-constrained
    cycle, but possibly different ones: [run] finds negative cycles in
    O(n + m) by sweeping the predecessor forest (any cycle there is a
    negative cycle) where {!solve} needs Theta(n * m) to trip its
    relax-count cutoff — the difference that lets the requirement-drop
    loop scale to 100k-cell circuits. *)
module Solver : sig
  type t

  val create : Rgraph.t -> t

  val run : ?warm:int array -> t -> require:(int -> int) -> outcome
  (** [run t ~require] solves cold, exactly like {!solve}.

      [run ~warm:rho t ~require] starts from a previous potential and
      enqueues only the sources of constraints it violates; if [rho] is
      feasible for the current requirements this verifies it with zero
      relaxations and returns it unchanged. Warm outcomes are sound
      (every returned potential satisfies all constraints; infeasibility
      still yields an over-constrained cycle) but not canonical — they
      depend on the starting point — so warm starts serve verification
      and oracle duty, never the result-defining solves. *)

  val run_cycles :
    ?warm:int array -> t -> require:(int -> int) ->
    (int array, int list list) result
  (** Like {!run}, but an infeasible system reports {e every} cycle of
      the predecessor forest at the abort point. The cycles are
      vertex-disjoint and each is a genuine negative constraint cycle,
      so a requirement-drop loop can retire all of them from one aborted
      solve instead of re-solving once per cycle. The list is non-empty
      and deterministic. *)

  val release : t -> int -> unit
  (** [release t v] lowers by one the requirement of every edge leaving
      vertex [v], rewriting only those edges' arcs (one longer each).
      Raises [Invalid_argument] if such an edge has no requirement left.
      Use it between an aborted run and {!resume}. *)

  val resume : t -> (int array, int list list) result
  (** Continue the last run, which must have aborted on an
      over-constrained cycle, from the labels it left, under the
      requirements {!release} has lowered since. It starts exactly where
      [run_cycles ~warm:(potentials t)] would, with the same queue in the
      same order, and so returns what that would, but builds the queue
      from the aborted run's queue and the vertices its cutoff left
      unsettled instead of re-evaluating every arc: releasing a
      requirement only lengthens arcs, so no other vertex can have a
      violated one. Raises [Invalid_argument] after a converged run. *)

  val potentials : t -> int array
  (** Snapshot of the label state left by the last run — the feasible
      potential after a converged run, or the partial labels of an
      aborted one. Feeding it back as [~warm] restarts the relaxation
      on updated requirements; {!resume} continues in place from the
      same labels and is checked against that restart. *)
end

val retimed_weight : Rgraph.t -> int array -> int -> int
(** [retimed_weight g rho e] is Eq. 1 for edge [e]. *)

val is_legal : Rgraph.t -> int array -> bool
(** All retimed weights non-negative and pinned vertices at lag 0. *)

val apply : Rgraph.t -> int array -> Rgraph.t
(** Rebuild the graph with retimed weights, moving register initial
    values along by elementary retiming steps: a forward move across a
    gate computes the new value with {!Logic3.eval}; a backward move
    justifies it with {!Logic3.preimage}. The moves run from a worklist
    (the result does not depend on their order). When fanout values
    disagree, or a value has no preimage, the pass stops, and when the
    moves cannot all be made, it runs out: either way every edge at a
    lagged vertex gets X initial values (in hardware the scan chain
    supplies those). Raises [Invalid_argument] when [rho] is not
    legal. *)

val total_registers_after : Rgraph.t -> int array -> int
(** Per-pin register count after retiming (cheap, does not apply). *)
