(** Text and CSV rendering of Merced results — the rows of Tables 10/11
    (partition results) and Table 12 (area comparison). *)

val table10_header : string

val table10_row : Merced.result -> string
(** Circuit, DFFs, DFFs on SCC, cut nets on SCC, nets cut, CPU time. *)

val table12_row : l16:Merced.result -> l24:Merced.result option -> string
(** ACBIT/ATotal with/without retiming at l_k = 16 and (optionally) 24;
    the paper prints 0 for circuits whose l_k = 24 run makes no internal
    cut, which [None] reproduces for circuits outside Table 11. *)

val summary : Merced.result -> string
(** Multi-line human summary of one run. *)

val csv_header : string

val csv_row : Merced.result -> string
(** Machine-readable full record, one line. *)

type bench_circuit = {
  gates : int;  (** combinational cells of the measured circuit *)
  dffs : int;   (** flip-flops *)
  edges : int;  (** nets of the partition-view graph *)
  segments : int;
      (** Merced partition count of the benched compile; [0] = not
          stamped (pre-compile stats, or an artefact recorded before
          the partition shape was stamped) *)
  largest_cluster : int;
      (** member gates of the biggest combinational segment; [0] = not
          stamped *)
}
(** Structural identity of a benchmark's workload, recorded so a
    baseline can be rejected when the generated circuit changed shape. *)

val bench_stats_compatible : bench_circuit -> bench_circuit -> bool
(** Same workload? The structural triple must agree exactly; the
    partition-shape fields only when both sides stamped them ([0] acts
    as a wildcard so baselines recorded before the shape was stamped
    remain comparable). *)

type bench_entry = {
  entry_name : string;  (** e.g. ["s27/flow"] or ["fault_sim/cone"] *)
  median_ns : float;    (** median wall-clock per run *)
  mad_ns : float;       (** median absolute deviation of the samples *)
  jobs : int;           (** worker count the entry was measured at *)
  circuit_stats : bench_circuit option;
      (** present on pipeline-sweep entries; [None] keeps the emitted
          JSON byte-identical to the pre-stats schema *)
}
(** One measured row of a BENCH_*.json artefact. *)

val bench_json : name:string -> entries:bench_entry list -> string
(** The BENCH_*.json perf-baseline format:
    [{"name":..., "entries":[{"name","median_ns","mad_ns","jobs"},...]}]
    with optional ["gates"/"dffs"/"edges"] (and, when stamped,
    ["segments"/"largest_cluster"]) keys per entry when
    [circuit_stats] is set. Every bench group (fault-sim shootout,
    [merced bench] pipeline sweep) emits through this helper so
    artefacts stay schema-identical and future changes can diff against
    a recorded baseline. *)

val bench_entries_of_json : string -> bench_entry list
(** Read back entries from text {!bench_json} wrote — a line-oriented
    scan of this module's own output, not a general JSON parser. Lines
    that do not carry all four mandatory keys are skipped. *)
