(** The job bodies shared by the one-shot CLI and the serve daemon.

    Each operation renders its result into a string instead of printing,
    so the daemon can ship it over the wire and the CLI can
    [print_string] it — one code path, guaranteed byte-identical output
    through both front doors. Operations raise the same exceptions the
    CLI already maps to exit code 2 ({!Ppet_netlist.Circuit.Error},
    {!Ppet_check.Error.Error}); the daemon maps them to structured error
    replies instead. *)

type outcome = {
  exit_code : int;  (** the CLI contract: 0 clean, 1 findings, 2 failure *)
  output : string;  (** exactly the bytes the one-shot CLI prints *)
}

val load_circuit : string -> Ppet_netlist.Circuit.t
(** Resolve a circuit spec the way every subcommand does: ["s27"], an
    existing .bench or .v file path, or a registry benchmark name.
    Raises {!Ppet_netlist.Circuit.Error} otherwise. Not thread-safe
    (the benchmark generator memoises); the daemon uses
    {!load_circuit_locked}. *)

val load_circuit_locked : string -> Ppet_netlist.Circuit.t
(** {!load_circuit} under the process-wide load lock — the entry point
    for concurrent server jobs. *)

val canonical : Ppet_netlist.Circuit.t -> string
(** Canonical .bench text — the content half of the serve cache key, so
    a circuit submitted by name and the same circuit submitted inline
    address the same cache entry. *)

val read_bench_file : string -> (string * string * string) option
(** [read_bench_file spec] is [Some (text, title, path)] when [spec] is a
    .bench file on disk (any existing path but ["s27"] and [.v]
    files), with the title [merced lint] and [merced submit] give it:
    the base name without extension. Lint takes such a file through
    the tolerant text front end ({!lint_text}), so a broken file is
    findings, not an error; submit ships it inline. [None] for
    everything {!load_circuit} resolves otherwise. *)

val compile :
  ?verbose:bool ->
  ?locked:(int -> bool) ->
  params:Ppet_core.Params.t ->
  Ppet_netlist.Circuit.t ->
  outcome
(** The CLI's [partition] (human form): summary, retiming feasibility,
    per-partition lines with [verbose]. Exit code 0. *)

val selftest :
  ?pool:Ppet_parallel.Domain_pool.t ->
  params:Ppet_core.Params.t ->
  max_width:int ->
  Ppet_netlist.Circuit.t ->
  outcome
(** Partition, pseudo-exhaustively fault-test every segment no wider
    than [max_width] under the default batch policy, print phasing and
    schedule. Exit code 0. *)

val analyze :
  ?pool:Ppet_parallel.Domain_pool.t ->
  params:Ppet_core.Params.t ->
  json:bool ->
  Ppet_netlist.Circuit.t ->
  outcome
(** The static dataflow report ({!Ppet_core.Analyze}): constants,
    X-state, SCOAP extremes, per-segment untestable-fault counts. Exit
    code 0; deterministic bytes, so the daemon caches it. *)

val lint :
  ?pool:Ppet_parallel.Domain_pool.t ->
  ?rules:string list ->
  ?verbose:bool ->
  params:Ppet_core.Params.t ->
  Ppet_netlist.Circuit.t ->
  outcome
(** Lint an in-memory circuit, human rendering ([verbose] adds
    info-severity lines). Exit code 1 on findings, 0 when clean. *)

val lint_text :
  ?pool:Ppet_parallel.Domain_pool.t ->
  ?rules:string list ->
  ?verbose:bool ->
  params:Ppet_core.Params.t ->
  ?title:string ->
  ?file:string ->
  string ->
  outcome
(** Lint .bench text through the tolerant front-end (malformed input is
    findings, not a crash), matching [merced lint FILE.bench]. *)

val campaign :
  ?pool:Ppet_parallel.Domain_pool.t ->
  Ppet_core.Campaign.plan ->
  outcome * Ppet_core.Campaign.report
(** Run a whole-chip self-test campaign. The outcome output is
    {!Ppet_core.Campaign.human} (plus one line per circuit missing the
    coverage gate; exit 1 when any does); the report is handed back so
    the CLI can also write BENCH_campaign.json. The human bytes are
    timing-free, so the daemon may cache them. *)
