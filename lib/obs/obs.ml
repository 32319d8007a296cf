module Metric = struct
  type t =
    | Flow_iterations
    | Flow_tree_nets
    | Flow_settled
    | Flow_decreases
    | Bf_relaxations
    | Retime_required_kept
    | Retime_required_dropped
    | Clusters_formed
    | Partitions_formed
    | Faults_simulated
    | Fault_patterns
    | Fault_word_evals
    | Campaign_circuits
    | Lint_rules_fired
    | Lint_findings
    | Pool_dispatches
    | Pool_busy_ns

  let name = function
    | Flow_iterations -> "flow.iterations"
    | Flow_tree_nets -> "flow.tree_nets"
    | Flow_settled -> "flow.settled"
    | Flow_decreases -> "flow.decreases"
    | Bf_relaxations -> "retime.bf_relaxations"
    | Retime_required_kept -> "retime.required_kept"
    | Retime_required_dropped -> "retime.required_dropped"
    | Clusters_formed -> "cluster.clusters"
    | Partitions_formed -> "assign.partitions"
    | Faults_simulated -> "fault.faults"
    | Fault_patterns -> "fault.patterns"
    | Fault_word_evals -> "fault.word_evals"
    | Campaign_circuits -> "campaign.circuits"
    | Lint_rules_fired -> "lint.rules_fired"
    | Lint_findings -> "lint.findings"
    | Pool_dispatches -> "pool.dispatches"
    | Pool_busy_ns -> "pool.busy_ns"

  let all =
    [
      Flow_iterations; Flow_tree_nets; Flow_settled; Flow_decreases;
      Bf_relaxations;
      Retime_required_kept; Retime_required_dropped; Clusters_formed;
      Partitions_formed;
      Faults_simulated; Fault_patterns; Fault_word_evals; Campaign_circuits;
      Lint_rules_fired; Lint_findings;
      Pool_dispatches; Pool_busy_ns;
    ]
end

type event =
  | Begin of { name : string; tid : int; ts : int64; minor_words : float }
  | End of { tid : int; ts : int64; minor_words : float }
  | Count of { metric : Metric.t; tid : int; ts : int64; value : int }
  | Gauge of { name : string; tid : int; ts : int64; value : float }

type t = {
  mutex : Mutex.t;
  mutable events : event list; (* newest first *)
  clock : unit -> int64;
}

let wall_clock_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let create ?(clock = wall_clock_ns) () =
  { mutex = Mutex.create (); events = []; clock }

(* The one process-wide sink. An [Atomic.t] keeps the disabled check a
   single plain load from every domain. *)
let sink : t option Atomic.t = Atomic.make None

(* A domain-local scope that overrides the global sink: the serve daemon
   runs many jobs in one process and gives each in-flight job its own
   trace on the worker domain executing it. Disabled-path cost grows
   from one atomic load to a DLS read plus the atomic load — still no
   closure, no allocation. *)
let scoped : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install t = Atomic.set sink (Some t)

let current () =
  match Domain.DLS.get scoped with
  | Some _ as s -> s
  | None -> Atomic.get sink

let uninstall () = Atomic.set sink None
let enabled () = current () <> None

let with_installed t f =
  install t;
  Fun.protect ~finally:uninstall f

let with_scoped t f =
  let prev = Domain.DLS.get scoped in
  Domain.DLS.set scoped (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scoped prev) f

let events t = Mutex.protect t.mutex (fun () -> List.rev t.events)
let now t = t.clock ()

let record t ev =
  Mutex.lock t.mutex;
  t.events <- ev :: t.events;
  Mutex.unlock t.mutex

(* worker attribution: Domain_pool publishes the worker index it gave
   this domain, so events land on the right track even though domains
   are recycled across dispatches *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let worker () = Domain.DLS.get worker_key

let with_worker w f =
  let prev = Domain.DLS.get worker_key in
  Domain.DLS.set worker_key w;
  Fun.protect ~finally:(fun () -> Domain.DLS.set worker_key prev) f

let span name f =
  match current () with
  | None -> f ()
  | Some t ->
    let tid = worker () in
    record t
      (Begin { name; tid; ts = t.clock (); minor_words = Gc.minor_words () });
    let finish () =
      record t (End { tid; ts = t.clock (); minor_words = Gc.minor_words () })
    in
    (match f () with
     | v ->
       finish ();
       v
     | exception e ->
       finish ();
       raise e)

let add metric value =
  match current () with
  | None -> ()
  | Some t ->
    record t (Count { metric; tid = worker (); ts = t.clock (); value })

let gauge name value =
  match current () with
  | None -> ()
  | Some t ->
    record t (Gauge { name; tid = worker (); ts = t.clock (); value })
