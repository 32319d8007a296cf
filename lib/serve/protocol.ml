module Params = Ppet_core.Params
module Bench_runner = Ppet_core.Bench_runner
module Campaign = Ppet_core.Campaign

(* ------------------------------------------------------------------ *)
(* requests                                                            *)

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
  params : Params.t;
  timeout_ms : int option;
  progress : bool;
}

type request =
  | Run of job_request
  | Suite of job_request list
  | Stats
  | Shutdown

type parsed = { request : request; id : string option }

let op_name = function
  | Compile _ -> "compile"
  | Lint _ -> "lint"
  | Selftest _ -> "selftest"
  | Analyze _ -> "analyze"
  | Bench _ -> "bench"
  | Campaign _ -> "campaign"
  | Sleep _ -> "sleep"

let ( let* ) = Result.bind

let params_of_json j =
  let d = Params.default in
  let lk = Option.value ~default:d.Params.l_k (Json.int_member "lk" j) in
  let beta = Option.value ~default:d.Params.beta (Json.int_member "beta" j) in
  let seed =
    match Json.int_member "seed" j with
    | Some s -> Int64.of_int s
    | None -> d.Params.seed
  in
  let* partitioner =
    match Json.str_member "partitioner" j with
    | None -> Ok d.Params.partitioner
    | Some name -> (
      match Params.partitioner_of_name name with
      | Some p -> Ok p
      | None ->
        Error
          (Printf.sprintf "partitioner must be one of %s, not %S"
             (String.concat ", "
                (List.map Params.partitioner_name Params.partitioners))
             name))
  in
  let p = { d with Params.l_k = lk; beta; seed; partitioner } in
  match Params.validate p with Ok () -> Ok p | Error msg -> Error msg

let source_of_json j =
  match (Json.str_member "circuit" j, Json.str_member "bench" j) with
  | Some _, Some _ -> Error "give either \"circuit\" or \"bench\", not both"
  | Some spec, None -> Ok (Spec spec)
  | None, Some text ->
    Ok
      (Text
         {
           text;
           title = Json.str_member "title" j;
           file = Json.str_member "file" j;
         })
  | None, None -> Error "missing circuit: give \"circuit\" (a name) or \"bench\" (inline text)"

let string_list_member key j =
  match Json.member key j with
  | None -> Ok None
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (Some (List.rev acc))
      | Json.Str s :: rest -> go (s :: acc) rest
      | _ -> Error (Printf.sprintf "%S must be a list of strings" key)
    in
    go [] items
  | Some _ -> Error (Printf.sprintf "%S must be a list of strings" key)

let flag key j = Option.value ~default:false (Json.bool_member key j)

let job_of_json op j =
  match op with
  | "compile" ->
    let* source = source_of_json j in
    Ok (Compile { source; verbose = flag "verbose" j })
  | "lint" ->
    let* source = source_of_json j in
    let* rules = string_list_member "rules" j in
    Ok
      (Lint
         {
           source;
           rules = Option.value ~default:[] rules;
           verbose = flag "verbose" j;
         })
  | "selftest" ->
    let* source = source_of_json j in
    let max_width =
      Option.value ~default:Campaign.default_plan.Campaign.max_width
        (Json.int_member "max_width" j)
    in
    Ok (Selftest { source; max_width })
  | "analyze" ->
    let* source = source_of_json j in
    Ok (Analyze { source; json = flag "json" j })
  | "bench" ->
    let d = Bench_runner.default_plan in
    let* benchmarks = string_list_member "benchmarks" j in
    let benchmarks =
      Option.value ~default:d.Bench_runner.benchmarks benchmarks
    in
    let repeat =
      Option.value ~default:d.Bench_runner.repeat (Json.int_member "repeat" j)
    in
    Ok (Bench { benchmarks; repeat })
  | "campaign" ->
    let d = Campaign.default_plan in
    let* profiles = string_list_member "profiles" j in
    let profiles = Option.value ~default:d.Campaign.profiles profiles in
    let words = Option.value ~default:d.Campaign.words (Json.int_member "words" j) in
    let drop = Option.value ~default:d.Campaign.drop (Json.bool_member "drop" j) in
    let max_width =
      Option.value ~default:d.Campaign.max_width (Json.int_member "max_width" j)
    in
    let* min_coverage =
      match Json.member "min_coverage" j with
      | None -> Ok d.Campaign.min_coverage
      | Some v -> (
        match Json.to_num v with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok f
        | _ -> Error "\"min_coverage\" must be a number in 0..1")
    in
    let prune = Option.value ~default:d.Campaign.prune (Json.bool_member "prune" j) in
    if profiles = [] then Error "campaign needs a non-empty \"profiles\" list"
    else if words < 1 then Error "\"words\" must be >= 1"
    else if
      max_width < 0 || max_width > Ppet_bist.Fault_engine.max_exhaustive_width
    then
      Error "\"max_width\" must be in 0..20"
    else Ok (Campaign { profiles; words; drop; max_width; min_coverage; prune })
  | "sleep" -> (
    match Json.int_member "ms" j with
    | Some ms when ms >= 0 -> Ok (Sleep { ms })
    | Some _ -> Error "\"ms\" must be >= 0"
    | None -> Error "sleep needs an integer \"ms\"")
  | other -> Error (Printf.sprintf "unknown op %S" other)

let job_request_of_json op j =
  let* job = job_of_json op j in
  let* params = params_of_json j in
  let* timeout_ms =
    match Json.member "timeout_ms" j with
    | None -> Ok None
    | Some v -> (
      match Json.to_int v with
      | Some ms when ms > 0 -> Ok (Some ms)
      | _ -> Error "\"timeout_ms\" must be a positive integer")
  in
  Ok { job; params; timeout_ms; progress = flag "progress" j }

let job_ops =
  [ "compile"; "lint"; "selftest"; "analyze"; "bench"; "campaign"; "sleep" ]

let request_of_json j =
  let id = Json.str_member "id" j in
  let* request =
    match Json.str_member "op" j with
    | None -> Error "missing \"op\""
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some "suite" -> (
      match Json.list_member "jobs" j with
      | None | Some [] -> Error "suite needs a non-empty \"jobs\" list"
      | Some jobs ->
        let rec go acc i = function
          | [] -> Ok (Suite (List.rev acc))
          | item :: rest -> (
            match Json.str_member "op" item with
            | None -> Error (Printf.sprintf "suite job %d: missing \"op\"" i)
            | Some op when not (List.mem op job_ops) ->
              Error
                (Printf.sprintf "suite job %d: %S is not a job op" i op)
            | Some op -> (
              match job_request_of_json op item with
              | Ok jr -> go (jr :: acc) (i + 1) rest
              | Error msg -> Error (Printf.sprintf "suite job %d: %s" i msg)))
        in
        go [] 0 jobs)
    | Some op when List.mem op job_ops ->
      let* jr = job_request_of_json op j in
      Ok (Run jr)
    | Some other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { request; id }

let parse line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "bad JSON: %s" msg)
  | Ok (Json.Obj _ as j) -> request_of_json j
  | Ok _ -> Error "a request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* replies                                                             *)

type job_result = {
  exit_code : int;
  output : string;
  cached : bool;
  stages : (string * int64) list;
}

type job_error = {
  stage : string;
  message : string;
  timeout : bool;
  busy : bool;
}

type job_outcome = Done of job_result | Failed of job_error

let with_id id fields =
  match id with None -> fields | Some s -> fields @ [ ("id", Json.Str s) ]

let stages_json stages =
  Json.List
    (List.map
       (fun (name, ns) ->
         Json.Obj
           [
             ("name", Json.Str name);
             ("ms", Json.Num (Int64.to_float ns /. 1e6));
           ])
       stages)

let result_fields r =
  [
    ("status", Json.Str "ok");
    ("exit_code", Json.Num (float_of_int r.exit_code));
    ("cached", Json.Bool r.cached);
    ("output", Json.Str r.output);
    ("stages", stages_json r.stages);
  ]

let error_fields e =
  [
    ("status", Json.Str "error");
    ("stage", Json.Str e.stage);
    ("message", Json.Str e.message);
  ]
  @ (if e.timeout then [ ("timeout", Json.Bool true) ] else [])
  @ if e.busy then [ ("busy", Json.Bool true) ] else []

let outcome_fields = function
  | Done r -> result_fields r
  | Failed e -> error_fields e

let result_frame ?id r =
  Json.Obj (with_id id (("type", Json.Str "result") :: result_fields r))

let error_frame ?id e =
  Json.Obj (with_id id (("type", Json.Str "error") :: error_fields e))

let progress_frame ?id ~stage phase =
  Json.Obj
    (with_id id
       [
         ("type", Json.Str "progress");
         ("stage", Json.Str stage);
         ("phase", Json.Str (match phase with `Begin -> "begin" | `End -> "end"));
       ])

let suite_frame ?id outcomes =
  let ok, errors, cached, findings =
    List.fold_left
      (fun (ok, errors, cached, findings) o ->
        match o with
        | Done r ->
          ( ok + 1,
            errors,
            (cached + if r.cached then 1 else 0),
            (findings + if r.exit_code = 1 then 1 else 0) )
        | Failed _ -> (ok, errors + 1, cached, findings))
      (0, 0, 0, 0) outcomes
  in
  Json.Obj
    (with_id id
       [
         ("type", Json.Str "result");
         ("op", Json.Str "suite");
         ("status", Json.Str (if errors = 0 then "ok" else "error"));
         ("total", Json.Num (float_of_int (List.length outcomes)));
         ("ok", Json.Num (float_of_int ok));
         ("errors", Json.Num (float_of_int errors));
         ("findings", Json.Num (float_of_int findings));
         ("cached", Json.Num (float_of_int cached));
         ( "jobs",
           Json.List (List.map (fun o -> Json.Obj (outcome_fields o)) outcomes)
         );
       ])

let shutdown_frame ?id () =
  Json.Obj
    (with_id id
       [
         ("type", Json.Str "result");
         ("op", Json.Str "shutdown");
         ("status", Json.Str "ok");
       ])

let stats_frame ?id ~workers ~queue_depth ~queue_limit ~jobs_run ~cache_hits
    ~cache_misses () =
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    (with_id id
       [
         ("type", Json.Str "result");
         ("op", Json.Str "stats");
         ("status", Json.Str "ok");
         ("workers", num workers);
         ("queue_depth", num queue_depth);
         ("queue_limit", num queue_limit);
         ("jobs_run", num jobs_run);
         ("cache_hits", num cache_hits);
         ("cache_misses", num cache_misses);
       ])
