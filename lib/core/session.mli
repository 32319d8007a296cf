(** Whole-chip PPET self-test session, executed on the synthesized
    testable netlist with parallel fault simulation.

    This is the experiment the paper argues for but never runs at gate
    level: every CBIT operates concurrently in dual mode (PSA — its
    register bank both steps its feedback polynomial and folds in the
    arriving responses of the partition it follows), so one burst tests
    all segments at once. Detection is judged exactly as hardware would:
    a fault is caught iff some CBIT signature — or the virtual MISR
    observing the primary outputs — differs from the fault-free machine
    after the burst.

    Fault simulation is bit-sliced: lane 0 carries the good machine and
    each of the remaining word lanes a different faulty machine, so one
    simulation pass evaluates 61 faults. The functional stimulus is one
    random bit per primary input per cycle, broadcast to every lane, so
    the good machine and each faulty one see the same inputs. Coverage here is {e measured},
    not inferred: data-dependent PSA patterns forfeit the per-segment
    pseudo-exhaustive guarantee (validated separately by
    {!Ppet_bist.Pet}), and faults whose effects never reach a CBIT or a
    primary output are structurally undetectable by this architecture. *)

type report = {
  n_faults : int;
  n_detected : int;
  coverage : float;          (** detected / faults, 0..1 *)
  burst_cycles : int;        (** cycles actually simulated *)
  truncated : bool;          (** burst shorter than 2^(widest CBIT) *)
  scan_bits : int;
  undetected : Ppet_bist.Fault.t list;
      (** sites named in the ORIGINAL circuit's node ids *)
}

val run :
  ?max_burst:int ->
  ?faults:Ppet_bist.Fault.t list ->
  ?observe_pos:bool ->
  ?pool:Ppet_parallel.Domain_pool.t ->
  Testable.t ->
  report
(** [run t] injects each fault (default: the collapsed stuck-at list of
    the original circuit, sites in original node ids) into the testable
    netlist and measures signature detection over a burst of
    [max_burst] cycles (default 1024; [truncated] flags bursts shorter
    than the exhaustive [2 ^ widest CBIT] count).
    [observe_pos] (default true) adds a 16-bit virtual MISR on the
    primary outputs, standing for the output CBIT of the final pipe
    stage. Raises [Invalid_argument] if a fault site's signal does not
    exist in the testable netlist.

    [?pool] shards the independent 61-fault simulation passes across
    the pool's domains; per-pass results are merged in pass order, so
    the report is identical at any job count. *)
