module Params = Ppet_core.Params
module Circuit = Ppet_netlist.Circuit
module Bench_parser = Ppet_netlist.Bench_parser
module Check_error = Ppet_check.Error
module Obs = Ppet_obs.Obs
module Domain_pool = Ppet_parallel.Domain_pool

type config = {
  socket_path : string;
  jobs : int;
  queue_limit : int;
  default_timeout_ms : int option;
  quiet : bool;
}

exception Timed_out of string

let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* connections                                                         *)

(* A connection outlives its reader thread only while jobs it enqueued
   are still in flight: the reader waits for [pending] to drain before
   closing the descriptor, so workers never write to a recycled fd. *)
type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  pending_mutex : Mutex.t;
  pending_cond : Condition.t;
  mutable pending : int;
}

let make_conn fd =
  {
    fd;
    write_mutex = Mutex.create ();
    pending_mutex = Mutex.create ();
    pending_cond = Condition.create ();
    pending = 0;
  }

(* one frame = one line; a vanished client is not an error, the result
   is simply dropped (SIGPIPE is ignored in [run]) *)
let send conn json =
  let line = Json.to_string json ^ "\n" in
  Mutex.protect conn.write_mutex (fun () ->
      try
        let len = String.length line in
        let rec go off =
          if off < len then
            go (off + Unix.write_substring conn.fd line off (len - off))
        in
        go 0
      with Unix.Unix_error _ | Sys_error _ -> ())

let add_pending conn n =
  Mutex.protect conn.pending_mutex (fun () -> conn.pending <- conn.pending + n)

let sub_pending conn n =
  Mutex.protect conn.pending_mutex (fun () ->
      conn.pending <- conn.pending - n;
      if conn.pending <= 0 then Condition.broadcast conn.pending_cond)

let wait_pending conn =
  Mutex.protect conn.pending_mutex (fun () ->
      while conn.pending > 0 do
        Condition.wait conn.pending_cond conn.pending_mutex
      done)

(* ------------------------------------------------------------------ *)
(* the job queue                                                       *)

(* where a finished job's outcome goes: straight back to the client, or
   into a suite aggregate that replies once when the last child lands *)
type agg = {
  agg_mutex : Mutex.t;
  mutable remaining : int;
  slots : Protocol.job_outcome option array;
  agg_id : string option;
}

type sink = Direct of string option | Collect of agg * int

type queued = {
  jreq : Protocol.job_request;
  sink : sink;
  conn : conn;
  timeout_ms : int option;  (* effective: request's or the server default *)
  deadline : float option;  (* absolute ms, from enqueue time *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : queued Queue.t;
  mutable stopping : bool;
  mutable jobs_run : int;
  cache : Cache.t;
}

let stopping t = Mutex.protect t.qmutex (fun () -> t.stopping)

let enqueue t items =
  Mutex.protect t.qmutex (fun () ->
      if t.stopping then `Stopping
      else if Queue.length t.queue + List.length items > t.cfg.queue_limit then
        `Full (Queue.length t.queue)
      else begin
        List.iter (fun q -> Queue.add q t.queue) items;
        Condition.broadcast t.qcond;
        `Ok
      end)

let stop t =
  Mutex.protect t.qmutex (fun () ->
      t.stopping <- true;
      Condition.broadcast t.qcond);
  (* a shutdown on the listening socket kicks the acceptor out of
     [accept] with an error; it checks [stopping] and exits cleanly *)
  try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* per-job tracing: stage summaries and live progress                  *)

(* top-level spans of a finished trace: (name, duration ns) in order *)
let top_spans evs =
  let depth = Hashtbl.create 4 in
  let stack = Hashtbl.create 4 in
  let out = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Begin { name; tid; ts; _ } ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        let st = Option.value ~default:[] (Hashtbl.find_opt stack tid) in
        Hashtbl.replace stack tid ((name, ts) :: st);
        Hashtbl.replace depth tid (d + 1)
      | Obs.End { tid; ts; _ } -> (
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        match Hashtbl.find_opt stack tid with
        | Some ((name, ts0) :: rest) ->
          Hashtbl.replace stack tid rest;
          Hashtbl.replace depth tid (max 0 (d - 1));
          if d - 1 = 0 then out := (name, Int64.sub ts ts0) :: !out
        | _ -> ())
      | _ -> ())
    evs;
  List.rev !out

(* an incremental scanner over a live trace: each call translates the
   events recorded since the last one into begin/end frames for
   top-level stages *)
let progress_scanner tr ~emit =
  let cursor = ref 0 in
  let depth = Hashtbl.create 4 in
  let stack = Hashtbl.create 4 in
  fun () ->
    let evs = Obs.events tr in
    let rec drop n l =
      if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
    in
    let fresh = drop !cursor evs in
    cursor := List.length evs;
    List.iter
      (fun ev ->
        match ev with
        | Obs.Begin { name; tid; _ } ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          if d = 0 then emit ~stage:name `Begin;
          let st = Option.value ~default:[] (Hashtbl.find_opt stack tid) in
          Hashtbl.replace stack tid (name :: st);
          Hashtbl.replace depth tid (d + 1)
        | Obs.End { tid; _ } -> (
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          match Hashtbl.find_opt stack tid with
          | Some (name :: rest) ->
            Hashtbl.replace stack tid rest;
            Hashtbl.replace depth tid (max 0 (d - 1));
            if d - 1 = 0 then emit ~stage:name `End
          | _ -> ())
        | _ -> ())
      fresh

(* Run [f] recording into [tr] on this worker. With [emit], a streamer
   thread polls the trace and ships progress frames live; it is joined —
   and the trace flushed once more — before this returns, so every
   progress frame precedes the result frame on the wire. *)
let traced ?emit tr f =
  match emit with
  | None -> Obs.with_scoped tr f
  | Some emit ->
    let flush = progress_scanner tr ~emit in
    let stop_flag = Atomic.make false in
    let streamer =
      Thread.create
        (fun () ->
          while not (Atomic.get stop_flag) do
            flush ();
            Thread.delay 0.05
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop_flag true;
        Thread.join streamer;
        flush ())
      (fun () -> Obs.with_scoped tr f)

(* ------------------------------------------------------------------ *)
(* executing one job                                                   *)

let circuit_of source =
  match source with
  | Protocol.Spec spec -> Ops.load_circuit_locked spec
  | Protocol.Text { text; title; file } ->
    Bench_parser.parse_string ?title ?file text

(* the lint front-end split the CLI applies: .bench files go through the
   tolerant text path (broken files are findings, not errors) *)
let lint_input source =
  match source with
  | Protocol.Text { text; title; file } -> `Text (text, title, file)
  | Protocol.Spec spec ->
    if
      spec <> "s27"
      && Sys.file_exists spec
      && not (Filename.check_suffix spec ".v")
    then
      let src = In_channel.with_open_text spec In_channel.input_all in
      `Text
        ( src,
          Some Filename.(remove_extension (basename spec)),
          Some spec )
    else `Circuit (Ops.load_circuit_locked spec)

let done_of_cache (e : Cache.entry) =
  Protocol.Done
    {
      Protocol.exit_code = e.Cache.exit_code;
      output = e.Cache.output;
      cached = true;
      stages = e.Cache.stages;
    }

let run_cached t ?emit ?key run =
  match Option.bind key (fun k -> Cache.find t.cache k) with
  | Some e -> done_of_cache e
  | None ->
    let tr = Obs.create () in
    let (o : Ops.outcome) = traced ?emit tr run in
    let stages = top_spans (Obs.events tr) in
    (match key with
     | Some k ->
       Cache.store t.cache k
         { Cache.exit_code = o.Ops.exit_code; output = o.Ops.output; stages }
     | None -> ());
    Protocol.Done
      {
        Protocol.exit_code = o.Ops.exit_code;
        output = o.Ops.output;
        cached = false;
        stages;
      }

let execute t ?emit ~deadline (jreq : Protocol.job_request) =
  let params = jreq.Protocol.params in
  let params_fp = Params.fingerprint params in
  match jreq.Protocol.job with
  | Protocol.Sleep { ms } ->
    let tr = Obs.create () in
    traced ?emit tr (fun () ->
        Obs.span "sleep" (fun () ->
            let t0 = now_ms () in
            let fin = t0 +. float_of_int ms in
            let rec nap () =
              let now = now_ms () in
              if now < fin then begin
                (match deadline with
                 | Some dl when now > dl ->
                   raise
                     (Timed_out
                        (Printf.sprintf "sleep aborted after %.0f ms (timeout)"
                           (now -. t0)))
                 | _ -> ());
                Thread.delay (Float.min 0.01 ((fin -. now) /. 1000.));
                nap ()
              end
            in
            nap ()));
    Protocol.Done
      {
        Protocol.exit_code = 0;
        output = Printf.sprintf "slept %d ms\n" ms;
        cached = false;
        stages = top_spans (Obs.events tr);
      }
  | Protocol.Compile { source; verbose } ->
    let c = circuit_of source in
    let key =
      Cache.key ~op:"compile" ~params_fp ~content:(Ops.canonical c)
        ~extra:(Printf.sprintf "verbose=%b" verbose)
    in
    run_cached t ?emit ~key (fun () -> Ops.compile ~verbose ~params c)
  | Protocol.Selftest { source; max_width } ->
    let c = circuit_of source in
    let key =
      Cache.key ~op:"selftest" ~params_fp ~content:(Ops.canonical c)
        ~extra:(Printf.sprintf "max_width=%d" max_width)
    in
    run_cached t ?emit ~key (fun () -> Ops.selftest ~params ~max_width c)
  | Protocol.Analyze { source; json } ->
    let c = circuit_of source in
    let key =
      Cache.key ~op:"analyze" ~params_fp ~content:(Ops.canonical c)
        ~extra:(Printf.sprintf "json=%b" json)
    in
    run_cached t ?emit ~key (fun () -> Ops.analyze ~params ~json c)
  | Protocol.Lint { source; rules; verbose } ->
    let rules_opt = match rules with [] -> None | r -> Some r in
    let extra title file =
      Printf.sprintf "rules=%s;verbose=%b;title=%s;file=%s"
        (String.concat "," rules) verbose
        (Option.value ~default:"" title)
        (Option.value ~default:"" file)
    in
    (match lint_input source with
     | `Text (text, title, file) ->
       let key =
         Cache.key ~op:"lint" ~params_fp ~content:text ~extra:(extra title file)
       in
       run_cached t ?emit ~key (fun () ->
           Ops.lint_text ?rules:rules_opt ~verbose ~params ?title ?file text)
     | `Circuit c ->
       let key =
         Cache.key ~op:"lint" ~params_fp ~content:(Ops.canonical c)
           ~extra:(extra None None)
       in
       run_cached t ?emit ~key (fun () ->
           Ops.lint ?rules:rules_opt ~verbose ~params c))
  | Protocol.Bench { benchmarks; repeat } ->
    run_cached t ?emit (fun () -> Ops.bench ~benchmarks ~repeat)
  | Protocol.Campaign { profiles; words; drop; max_width; min_coverage; prune }
    ->
    let plan =
      {
        Ppet_core.Campaign.default_plan with
        Ppet_core.Campaign.profiles;
        params;
        words;
        drop;
        max_width;
        min_coverage;
        prune;
      }
    in
    (* cacheable: the human rendering carries no timings, so the same
       profiles + knobs + params always produce the same bytes *)
    let key =
      Cache.key ~op:"campaign" ~params_fp
        ~content:(String.concat "," profiles)
        ~extra:
          (Printf.sprintf "words=%d;drop=%b;mw=%d;mc=%h;prune=%b" words drop
             max_width min_coverage prune)
    in
    run_cached t ?emit ~key (fun () -> fst (Ops.campaign plan))

(* every failure mode of a job becomes a structured error reply; the
   daemon itself never dies on a poisoned job *)
let outcome_of_exn = function
  | Timed_out msg ->
    Some
      (Protocol.Failed
         { Protocol.stage = "session"; message = msg; timeout = true; busy = false })
  | Check_error.Error e ->
    let message =
      match e.Check_error.position with
      | Some pos -> pos ^ ": " ^ e.Check_error.message
      | None -> e.Check_error.message
    in
    Some
      (Protocol.Failed
         {
           Protocol.stage = Check_error.stage_name e.Check_error.stage;
           message;
           timeout = false;
           busy = false;
         })
  | Circuit.Error msg ->
    Some
      (Protocol.Failed
         { Protocol.stage = "parse"; message = msg; timeout = false; busy = false })
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Some
      (Protocol.Failed
         { Protocol.stage = "session"; message = msg; timeout = false; busy = false })
  | _ -> None

let run_job t (q : queued) =
  let emit =
    match q.sink with
    | Direct id when q.jreq.Protocol.progress ->
      Some
        (fun ~stage phase ->
          send q.conn (Protocol.progress_frame ?id ~stage phase))
    | _ -> None
  in
  let outcome =
    try
      (match q.deadline with
       | Some dl when now_ms () > dl ->
         raise
           (Timed_out
              (Printf.sprintf "timed out after %d ms waiting in queue"
                 (Option.value ~default:0 q.timeout_ms)))
       | _ -> ());
      execute t ?emit ~deadline:q.deadline q.jreq
    with e -> (
      match outcome_of_exn e with Some o -> o | None -> raise e)
  in
  (* count the job before its reply leaves, so a stats query issued
     after a client saw the result never undercounts *)
  Mutex.protect t.qmutex (fun () -> t.jobs_run <- t.jobs_run + 1);
  (match q.sink with
   | Direct id -> (
     match outcome with
     | Protocol.Done r -> send q.conn (Protocol.result_frame ?id r)
     | Protocol.Failed e -> send q.conn (Protocol.error_frame ?id e))
   | Collect (agg, idx) ->
     let finished =
       Mutex.protect agg.agg_mutex (fun () ->
           agg.slots.(idx) <- Some outcome;
           agg.remaining <- agg.remaining - 1;
           agg.remaining = 0)
     in
     if finished then
       let outcomes =
         Array.to_list
           (Array.map
              (function
                | Some o -> o
                | None ->
                  Protocol.Failed
                    {
                      Protocol.stage = "session";
                      message = "suite slot never completed";
                      timeout = false;
                      busy = false;
                    })
              agg.slots)
       in
       send q.conn (Protocol.suite_frame ?id:agg.agg_id outcomes));
  sub_pending q.conn 1

(* ------------------------------------------------------------------ *)
(* workers                                                             *)

let rec drain t w =
  let next =
    Mutex.protect t.qmutex (fun () ->
        let rec wait () =
          if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
          else if t.stopping then None
          else begin
            Condition.wait t.qcond t.qmutex;
            wait ()
          end
        in
        wait ())
  in
  match next with
  | None -> ()
  | Some q ->
    run_job t q;
    drain t w

(* ------------------------------------------------------------------ *)
(* the protocol front end                                              *)

let busy_error message =
  { Protocol.stage = "session"; message; timeout = false; busy = true }

let effective_timeout t (jreq : Protocol.job_request) =
  match jreq.Protocol.timeout_ms with
  | Some _ as s -> s
  | None -> t.cfg.default_timeout_ms

let queued_of t conn sink jreq =
  let timeout_ms = effective_timeout t jreq in
  {
    jreq;
    sink;
    conn;
    timeout_ms;
    deadline = Option.map (fun ms -> now_ms () +. float_of_int ms) timeout_ms;
  }

let reject t conn id n = function
  | `Stopping ->
    sub_pending conn n;
    send conn (Protocol.error_frame ?id (busy_error "server is shutting down"))
  | `Full depth ->
    sub_pending conn n;
    send conn
      (Protocol.error_frame ?id
         (busy_error
            (Printf.sprintf "queue full (%d queued, limit %d); retry later"
               depth t.cfg.queue_limit)))

let handle_request t conn line =
  match Protocol.parse line with
  | Error msg ->
    send conn
      (Protocol.error_frame
         { Protocol.stage = "parse"; message = msg; timeout = false; busy = false })
  | Ok { Protocol.request; id } -> (
    match request with
    | Protocol.Stats ->
      let hits, misses = Cache.stats t.cache in
      let depth, jobs_run =
        Mutex.protect t.qmutex (fun () -> (Queue.length t.queue, t.jobs_run))
      in
      send conn
        (Protocol.stats_frame ?id ~workers:t.cfg.jobs ~queue_depth:depth
           ~queue_limit:t.cfg.queue_limit ~jobs_run ~cache_hits:hits
           ~cache_misses:misses ())
    | Protocol.Shutdown ->
      send conn (Protocol.shutdown_frame ?id ());
      stop t
    | Protocol.Run jreq -> (
      add_pending conn 1;
      match enqueue t [ queued_of t conn (Direct id) jreq ] with
      | `Ok -> ()
      | (`Stopping | `Full _) as r -> reject t conn id 1 r)
    | Protocol.Suite jreqs -> (
      let n = List.length jreqs in
      let agg =
        {
          agg_mutex = Mutex.create ();
          remaining = n;
          slots = Array.make n None;
          agg_id = id;
        }
      in
      add_pending conn n;
      let items =
        List.mapi
          (fun i jreq ->
            (* children reply through the aggregate; per-job streams
               would interleave meaninglessly *)
            queued_of t conn
              (Collect (agg, i))
              { jreq with Protocol.progress = false })
          jreqs
      in
      match enqueue t items with
      | `Ok -> ()
      | (`Stopping | `Full _) as r -> reject t conn id n r))

let conn_loop t fd =
  let conn = make_conn fd in
  let ic = Unix.in_channel_of_descr fd in
  (try
     let rec loop () =
       match input_line ic with
       | line ->
         if String.trim line <> "" then handle_request t conn line;
         loop ()
       | exception End_of_file -> ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  (* keep the fd alive until every job this connection enqueued has
     delivered its reply (or dropped it) *)
  wait_pending conn;
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    if stopping t then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ()
    end
    else begin
      ignore (Thread.create (fun () -> conn_loop t fd) ());
      accept_loop t
    end
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)

let logf t fmt =
  if t.cfg.quiet then Printf.ifprintf stderr fmt else Printf.eprintf fmt

let claim_socket path =
  if Sys.file_exists path then begin
    (* a leftover socket file from a dead daemon is reclaimed; a live
       one (something accepts our probe) is a usage error *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      raise
        (Circuit.Error
           (Printf.sprintf "socket %S already has a live server" path));
    Sys.remove path
  end

let run cfg =
  if cfg.jobs < 1 then raise (Circuit.Error "serve: jobs must be >= 1");
  if cfg.queue_limit < 1 then
    raise (Circuit.Error "serve: queue limit must be >= 1");
  claim_socket cfg.socket_path;
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path) with
   | () -> ()
   | exception e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let t =
    {
      cfg;
      listen_fd;
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      jobs_run = 0;
      cache = Cache.create ();
    }
  in
  logf t "serve: listening on %s (%d workers, queue limit %d)\n%!"
    cfg.socket_path cfg.jobs cfg.queue_limit;
  let acceptor = Thread.create (fun () -> accept_loop t) () in
  (* the workers: every pool domain (the calling one included) drains
     the queue until shutdown; queued jobs are finished, not dropped *)
  Domain_pool.with_pool ~jobs:cfg.jobs (fun pool ->
      Domain_pool.run pool (fun w -> drain t w));
  Thread.join acceptor;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  let hits, misses = Cache.stats t.cache in
  logf t "serve: shut down after %d jobs (cache: %d hits, %d misses)\n%!"
    t.jobs_run hits misses
