module Segment = Ppet_netlist.Segment
module Benchmarks = Ppet_netlist.Benchmarks
module Generator = Ppet_netlist.Generator
module S27 = Ppet_netlist.S27
module Simulator = Ppet_bist.Simulator
module Fault = Ppet_bist.Fault
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Domain_pool = Ppet_parallel.Domain_pool
module Bench_stat = Ppet_obs.Bench_stat
module Prng = Ppet_digraph.Prng

(* `merced bench --compare`: run auto-dispatch against every forced
   configuration and prove each decision both fast and result-safe —
   the GPU-vs-CPU comparison-harness shape applied to the cost model.

   Per circuit, two stages are raced:

   - partition: every Params.partitioner, forced, on the same graph and
     seed. The auto row is the forced row of the partitioner the model
     picked; additionally each forced mode is re-run under the
     auto-derived params (decision cutover folded in, partitioner forced
     back) and the assignments must be bit-identical — the decision's
     perf knobs must not leak into results. Modes that cut worse than
     the chosen one, or that carry a worse quality prior
     (Cost_model.quality_factor — random tying flow on one tiny circuit
     does not make it a safe choice), are recorded but marked not
     [comparable], so the speed gate never rewards a quality loss.

   - fault_sim: the word widths 1/8/32, serial and (when jobs allow)
     pooled, against the auto policy (decision jobs/words/cutover). All
     configurations must produce the same detected-fault set — the batch
     engine's dispatch-invariance contract, checked end to end.

   The speed gate: per stage, the auto median must stay within
   [gate] x the best comparable forced median (plus an absolute slack
   that keeps microsecond-scale medians from flaking the gate). *)

type plan = {
  benchmarks : string list;
  repeat : int;
  jobs : int;           (* pooled configurations use this worker count *)
  params : Params.t;    (* base params; partitioner/cutover are the race *)
  model : Cost_model.t;
  gate : float;         (* auto must stay within gate x best forced *)
  slack_ns : float;     (* absolute grace on the gate *)
}

let default_gate = 1.1
let default_slack_ns = 1e5

type entry = {
  e_name : string;       (* "<circuit>/partition" or "<circuit>/fault_sim" *)
  config : string;       (* e.g. "flow", "jobs=2,words=8" *)
  chosen : bool;         (* the configuration auto-dispatch selected *)
  median_ns : float;
  mad_ns : float;
  ratio : float;         (* forced median / auto median; > 1 = auto faster *)
  result_match : bool;
  comparable : bool;     (* counts toward "best forced" in the gate *)
}

type report = {
  model_fp : string;
  gate : float;
  entries : entry list;
  failures : string list;  (* human lines; non-empty = exit 1 *)
}

let generate name =
  if name = "s27" then S27.circuit ()
  else
    let e = Benchmarks.find name in
    Generator.generate ~seed:0x5EEDL e.Benchmarks.profile

let assign_equal (a : Assign.t) (b : Assign.t) =
  a.Assign.cut_nets = b.Assign.cut_nets
  && List.length a.Assign.partitions = List.length b.Assign.partitions
  && List.for_all2
       (fun (p : Assign.partition) (q : Assign.partition) ->
         p.Assign.vertices = q.Assign.vertices
         && p.Assign.input_count = q.Assign.input_count)
       a.Assign.partitions b.Assign.partitions

(* cut count + oversize count: the quality a partitioner is judged on *)
let quality (a : Assign.t) =
  ( List.length a.Assign.cut_nets,
    List.length (List.filter (fun (p : Assign.partition) -> p.Assign.oversize)
                   a.Assign.partitions) )

let detected (o : Batch.outcome) =
  List.filter_map (fun (f, d) -> if d then Some f else None) o.Batch.results

let time ~repeat f =
  let s = Bench_stat.measure ~repeat f in
  (s.Bench_stat.median_ns, s.Bench_stat.mad_ns)

(* ------------------------------------------------------------------ *)

let partition_entries plan name c decision =
  let stats_name = name ^ "/partition" in
  let forced =
    List.map
      (fun p ->
        let params = { plan.params with Params.partitioner = p } in
        let r = Merced.run ~params c in
        let median_ns, mad_ns = time ~repeat:plan.repeat (fun () ->
            ignore (Merced.run ~params c))
        in
        (p, r, median_ns, mad_ns))
      Params.partitioners
  in
  let chosen_p = decision.Cost_model.d_partitioner in
  let _, chosen_r, auto_ns, _ =
    List.find (fun (p, _, _, _) -> p = chosen_p) forced
  in
  let chosen_q = quality chosen_r.Merced.assignment in
  List.map
    (fun (p, r, median_ns, mad_ns) ->
      (* the auto-derived params (decision cutover folded in) with this
         mode forced back must partition identically: the model's perf
         knobs are not allowed to leak into the result *)
      let auto_params =
        { (Cost_model.apply_decision decision plan.params) with
          Params.partitioner = p }
      in
      let r_auto = Merced.run ~params:auto_params c in
      let cuts, oversize = quality r.Merced.assignment in
      let chosen_cuts, chosen_oversize = chosen_q in
      {
        e_name = stats_name;
        config = Params.partitioner_name p;
        chosen = p = chosen_p;
        median_ns;
        mad_ns;
        ratio = (if auto_ns > 0.0 then median_ns /. auto_ns else 0.0);
        result_match = assign_equal r.Merced.assignment r_auto.Merced.assignment;
        (* realized quality no worse AND a no-worse quality prior: the
           gate asks "was there a safe config the dispatcher should have
           picked?", and a worse-prior baseline is not one *)
        comparable =
          cuts <= chosen_cuts && oversize <= chosen_oversize
          && Cost_model.quality_factor p <= Cost_model.quality_factor chosen_p;
      })
    forced

let fault_entries plan name c decision chosen_r =
  match Merced.segments chosen_r with
  | [] -> []
  | s :: rest ->
    let seg =
      List.fold_left
        (fun best s ->
          if Array.length s.Segment.members > Array.length best.Segment.members
          then s
          else best)
        s rest
    in
    let sim = Simulator.create c in
    let engine = Fault_engine.create sim seg in
    let faults = Fault.collapse c (Fault.of_segment c seg) in
    let n_in = Array.length (Segment.input_signals seg) in
    let rng = Prng.create 0xBE5CL in
    let word () =
      Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
    in
    let patterns =
      Batch.Batches (List.init 16 (fun _ -> Array.init n_in (fun _ -> word ())))
    in
    let run_config ?pool ~words ~cutover () =
      let policy =
        Batch.policy ~words ?pool ~drop:Batch.Keep ~cutover ()
      in
      let o = Batch.run engine policy ~patterns faults in
      let median_ns, mad_ns = time ~repeat:plan.repeat (fun () ->
          ignore (Batch.run engine policy ~patterns faults))
      in
      (detected o, median_ns, mad_ns)
    in
    let auto_jobs = decision.Cost_model.d_jobs in
    let auto_words = decision.Cost_model.d_words in
    let auto_cutover = decision.Cost_model.d_cutover in
    let with_pool jobs f =
      if jobs <= 1 then f None
      else Domain_pool.with_pool ~jobs (fun p -> f (Some p))
    in
    let auto_detected, auto_ns, auto_mad =
      with_pool auto_jobs (fun pool ->
          run_config ?pool ~words:auto_words ~cutover:auto_cutover ())
    in
    let e_name = name ^ "/fault_sim" in
    let auto_entry =
      {
        e_name;
        config =
          Printf.sprintf "auto(jobs=%d,words=%d,cutover=%s)" auto_jobs
            auto_words
            (if auto_cutover >= Cost_model.no_cutover then "never"
             else string_of_int auto_cutover);
        chosen = true;
        median_ns = auto_ns;
        mad_ns = auto_mad;
        ratio = 1.0;
        result_match = true;
        comparable = true;
      }
    in
    let forced_jobs = if plan.jobs > 1 then [ 1; plan.jobs ] else [ 1 ] in
    let forced =
      List.concat_map
        (fun jobs ->
          List.map
            (fun words ->
              let det, median_ns, mad_ns =
                with_pool jobs (fun pool ->
                    (* cutover 1 makes the pooled configs actually pool:
                       the race is dispatch policy, not the knee *)
                    run_config ?pool ~words
                      ~cutover:(if jobs > 1 then 1 else plan.params.Params.fault_cutover)
                      ())
              in
              {
                e_name;
                config = Printf.sprintf "jobs=%d,words=%d" jobs words;
                chosen = false;
                median_ns;
                mad_ns;
                ratio = (if auto_ns > 0.0 then median_ns /. auto_ns else 0.0);
                (* the batch engine's dispatch-invariance contract,
                   checked end to end: every configuration detects the
                   same faults *)
                result_match = det = auto_detected;
                comparable = true;
              })
            [ 1; 8; 32 ])
        forced_jobs
    in
    auto_entry :: forced

let gate_failures (plan : plan) entries =
  (* group by e_name, gate the auto median against the best comparable *)
  let names =
    List.sort_uniq compare (List.map (fun e -> e.e_name) entries)
  in
  List.concat_map
    (fun n ->
      let rows = List.filter (fun e -> e.e_name = n) entries in
      let auto = List.find_opt (fun e -> e.chosen) rows in
      let mismatches =
        List.filter (fun e -> not e.result_match) rows
        |> List.map (fun e ->
               Printf.sprintf "%s: config %s result differs from auto" n
                 e.config)
      in
      let speed =
        match auto with
        | None -> []
        | Some a ->
          let best =
            List.fold_left
              (fun best e ->
                if e.comparable && e.median_ns > 0.0 then
                  Float.min best e.median_ns
                else best)
              infinity rows
          in
          if
            Float.is_finite best
            && a.median_ns > (plan.gate *. best) +. plan.slack_ns
          then
            [
              Printf.sprintf
                "%s: auto %.3gms exceeds %.2fx best forced %.3gms" n
                (a.median_ns /. 1e6) plan.gate (best /. 1e6);
            ]
          else []
      in
      mismatches @ speed)
    names

let run ?(progress = fun _ -> ()) plan =
  if plan.repeat < 1 then invalid_arg "Dispatch_compare.run: repeat must be >= 1";
  if plan.jobs < 1 then invalid_arg "Dispatch_compare.run: jobs must be >= 1";
  if plan.gate < 1.0 then invalid_arg "Dispatch_compare.run: gate must be >= 1";
  let entries =
    List.concat_map
      (fun name ->
        progress (name ^ "/partition");
        let c = generate name in
        let decision =
          Cost_model.decide plan.model ~jobs_available:plan.jobs
            (Cost_model.stats_of_circuit c)
        in
        let parts = partition_entries plan name c decision in
        let chosen_r =
          Merced.run
            ~params:{ plan.params with
                      Params.partitioner = decision.Cost_model.d_partitioner }
            c
        in
        progress (name ^ "/fault_sim");
        parts @ fault_entries plan name c decision chosen_r)
      plan.benchmarks
  in
  {
    model_fp = Cost_model.fingerprint plan.model;
    gate = plan.gate;
    entries;
    failures = gate_failures plan entries;
  }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)

let human report =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "dispatch compare (model %s, gate %.2fx)\n"
    (String.sub report.model_fp 0 8)
    report.gate;
  Printf.bprintf buf "%-18s %-28s %9s %7s %6s %5s\n" "stage" "config"
    "median" "ratio" "match" "cmp";
  List.iter
    (fun e ->
      Printf.bprintf buf "%-18s %-28s %8.3gms %6.2fx %6s %5s%s\n" e.e_name
        e.config
        (e.median_ns /. 1e6)
        e.ratio
        (if e.result_match then "ok" else "DIFF")
        (if e.comparable then "yes" else "no")
        (if e.chosen then "  <- auto" else ""))
    report.entries;
  (match report.failures with
   | [] -> Buffer.add_string buf "dispatch gate: ok\n"
   | fs ->
     List.iter (fun f -> Printf.bprintf buf "dispatch gate: FAILED: %s\n" f) fs);
  Buffer.contents buf

(* Line-oriented like every BENCH artefact: one entry per line, fixed
   key order. *)
let to_json ?(normalise = false) report =
  let buf = Buffer.create 2048 in
  let ns x = if normalise then 0.0 else x in
  Printf.bprintf buf
    "{\n  \"name\": \"dispatch\",\n  \"schema_version\": 1,\n  \
     \"model\": \"%s\",\n  \"gate\": %.6g,\n  \"entries\": ["
    (if normalise then "" else report.model_fp)
    report.gate;
  List.iteri
    (fun i e ->
      Printf.bprintf buf
        "%s\n    { \"name\": \"%s\", \"config\": \"%s\", \"chosen\": %b, \
         \"median_ns\": %.6g, \"mad_ns\": %.6g, \"ratio\": %.6g, \
         \"result_match\": %b, \"comparable\": %b }"
        (if i = 0 then "" else ",")
        (String.escaped e.e_name) (String.escaped e.config) e.chosen
        (ns e.median_ns) (ns e.mad_ns) (ns e.ratio) e.result_match
        e.comparable)
    report.entries;
  Printf.bprintf buf "\n  ],\n  \"failures\": %d\n}\n"
    (List.length report.failures);
  Buffer.contents buf
