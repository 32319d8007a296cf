(** Bounded boolean equivalence checking between two circuits.

    {!check_bool} co-simulates both circuits word-parallel from the
    all-zero reset state on random input streams — 62 independent random
    streams per cycle of work, strongest for transformations that
    preserve reset behaviour exactly, such as test-hardware insertion in
    normal mode. Retiming leaves some moved registers legitimately
    unknown until scanned; its 3-valued check is
    {!Ppet_check.Seq_check.check}.

    The check is bounded (it proves nothing beyond the simulated
    horizon), but the transformations here shift no I/O latency, so a
    mismatch shows up within a few cycles of the divergence point. *)

type verdict = {
  equivalent : bool;
  cycles_run : int;
  first_mismatch : (int * string) option;
      (** (cycle, output name in the left circuit) *)
}

val check_bool :
  ?cycles:int ->
  ?seed:int64 ->
  ?force_right:(string * bool) list ->
  Ppet_netlist.Circuit.t ->
  Ppet_netlist.Circuit.t ->
  verdict
(** [check_bool left right] drives both circuits with the same random
    words on the inputs they share by name; inputs existing only in
    [right] (e.g. PPET control pins) are held at the value given in
    [force_right] (default 0/false). Outputs are compared positionally
    (both circuits must declare the same number of primary outputs, else
    [Invalid_argument]). Default 32 cycles. *)
