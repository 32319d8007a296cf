(** The serve wire protocol: newline-delimited JSON over a Unix socket.

    Each line the client sends is one request object; each line the
    server sends is one reply frame. A job request is answered by zero
    or more progress frames (only when the request set [progress] to
    true) followed by exactly one result or error frame. Frames carry
    the request's [id] back verbatim when one was given, so a client
    may pipeline requests on one connection.

    Request ops and their fields (defaults in parentheses): [compile]
    with [verbose] (false); [lint] with [rules] (all) and [verbose];
    [selftest] with [max_width] (16, the default l_k); [bench] with
    [benchmarks] and [repeat]; [campaign] with [profiles] (all
    seventeen), [words] (8), [drop] (true), [max_width] (16) and
    [min_coverage] (0 — the probe is
    a CLI-side measurement and has no wire form); [sleep] with [ms] — a
    diagnostic job that holds a worker, streams a "sleep" stage and
    honours [timeout_ms]; [suite] with [jobs], a list of job objects
    answered by one aggregated reply; [stats]; [shutdown].

    A circuit is either [circuit] (a spec the server resolves: "s27", a
    benchmark name, a server-side path) or [bench] (inline .bench text,
    with optional [title] and [file] for diagnostics parity). Params
    fields [lk], [beta], [seed], [partitioner] default to the CLI
    defaults; keys the protocol does not know are ignored. [timeout_ms]
    bounds the queue wait (running jobs are not preempted; only the
    cooperative [sleep] op aborts mid-flight). *)

type source =
  | Spec of string
  | Text of { text : string; title : string option; file : string option }

type job =
  | Compile of { source : source; verbose : bool }
  | Lint of { source : source; rules : string list; verbose : bool }
  | Selftest of { source : source; max_width : int }
  | Analyze of { source : source; json : bool }
  | Bench of { benchmarks : string list; repeat : int }
  | Campaign of {
      profiles : string list;
      words : int;
      drop : bool;
      max_width : int;
      min_coverage : float;
      prune : bool;
    }
  | Sleep of { ms : int }

type job_request = {
  job : job;
  params : Ppet_core.Params.t;
  timeout_ms : int option;  (** queue-wait bound; [None] = server default *)
  progress : bool;          (** stream per-stage progress frames *)
}

type request =
  | Run of job_request
  | Suite of job_request list
  | Stats
  | Shutdown

type parsed = { request : request; id : string option }

val op_name : job -> string

val parse : string -> (parsed, string) result
(** One request line to a request, or a message for the [parse]-stage
    error frame. *)

(** {2 Reply frames} *)

type job_result = {
  exit_code : int;                 (** the one-shot CLI's exit code *)
  output : string;                 (** the one-shot CLI's stdout, byte-identical *)
  cached : bool;
  stages : (string * int64) list;  (** top-level trace spans, name * ns *)
}

type job_error = {
  stage : string;   (** {!Ppet_check.Error.stage_name} vocabulary *)
  message : string;
  timeout : bool;
  busy : bool;      (** backpressure: queue full or server stopping *)
}

type job_outcome = Done of job_result | Failed of job_error

val result_frame : ?id:string -> job_result -> Json.t
val error_frame : ?id:string -> job_error -> Json.t
val progress_frame : ?id:string -> stage:string -> [ `Begin | `End ] -> Json.t
val suite_frame : ?id:string -> job_outcome list -> Json.t
(** Aggregated suite reply: per-job objects in manifest order plus
    [total]/[ok]/[errors]/[findings]/[cached] counts. *)

val shutdown_frame : ?id:string -> unit -> Json.t

val stats_frame :
  ?id:string ->
  workers:int ->
  queue_depth:int ->
  queue_limit:int ->
  jobs_run:int ->
  cache_hits:int ->
  cache_misses:int ->
  unit ->
  Json.t
