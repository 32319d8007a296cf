(* The observability layer: counters, span nesting, worker attribution,
   exporters, and the guarantee that instrumentation never perturbs
   pipeline output. *)

module Obs = Ppet_obs.Obs
module Export = Ppet_obs.Export
module Bench_stat = Ppet_obs.Bench_stat
module Domain_pool = Ppet_parallel.Domain_pool
module Merced = Ppet_core.Merced
module Params = Ppet_core.Params
module Report = Ppet_core.Report
module Generator = Ppet_netlist.Generator
module Bench_writer = Ppet_netlist.Bench_writer
module S27 = Ppet_netlist.S27

let record f =
  let tr = Obs.create () in
  let v = Obs.with_installed tr f in
  (v, tr)

(* ------------------------------------------------------------------ *)
(* counters                                                            *)

let counter_total metric events =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Obs.Count c when c.metric = metric -> acc + c.value
      | _ -> acc)
    0 events

let test_counter_arithmetic () =
  let (), tr =
    record (fun () ->
        Obs.add Obs.Metric.Flow_iterations 3;
        Obs.add Obs.Metric.Flow_iterations 4;
        Obs.add Obs.Metric.Bf_relaxations 10)
  in
  let events = Obs.events tr in
  Alcotest.(check int) "flow total" 7
    (counter_total Obs.Metric.Flow_iterations events);
  Alcotest.(check int) "bf total" 10
    (counter_total Obs.Metric.Bf_relaxations events);
  Alcotest.(check int) "no fault counts" 0
    (counter_total Obs.Metric.Faults_simulated events);
  (* the human rendering shows the accumulated totals *)
  let human = Export.to_human ~normalise:true tr in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "human mentions flow.iterations" true
    (contains human "flow.iterations");
  Alcotest.(check bool) "human omits zero counters" false
    (contains human "fault.faults")

let test_disabled_is_inert () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  (* none of these should record or raise without a sink *)
  Obs.add Obs.Metric.Flow_iterations 1;
  Obs.gauge "free" 1.0;
  Alcotest.(check int) "span passes value through" 9
    (Obs.span "void" (fun () -> 9))

(* ------------------------------------------------------------------ *)
(* span nesting                                                        *)

let names_of events =
  List.filter_map
    (function
      | Obs.Begin b -> Some ("B:" ^ b.name)
      | Obs.End _ -> Some "E"
      | Obs.Count _ | Obs.Gauge _ -> None)
    events

let test_span_nesting () =
  let (), tr =
    record (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ());
            Obs.span "inner2" (fun () -> ())))
  in
  Alcotest.(check (list string)) "well-nested order"
    [ "B:outer"; "B:inner"; "E"; "B:inner2"; "E"; "E" ]
    (names_of (Obs.events tr))

let test_span_ends_on_exception () =
  let raised, tr =
    record (fun () ->
        try
          Obs.span "boom" (fun () -> raise Exit)
        with Exit -> true)
  in
  Alcotest.(check bool) "exception propagated" true raised;
  Alcotest.(check (list string)) "span still closed" [ "B:boom"; "E" ]
    (names_of (Obs.events tr))

(* per-worker streams must be balanced and well-nested: depth never goes
   negative and returns to zero for every tid *)
let balanced events =
  let depth = Hashtbl.create 8 in
  let get tid = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
  let ok = ref true in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Begin b -> Hashtbl.replace depth b.tid (get b.tid + 1)
      | Obs.End e ->
        let d = get e.tid - 1 in
        if d < 0 then ok := false;
        Hashtbl.replace depth e.tid d
      | Obs.Count _ | Obs.Gauge _ -> ())
    events;
  Hashtbl.iter (fun _ d -> if d <> 0 then ok := false) depth;
  !ok

(* ------------------------------------------------------------------ *)
(* worker attribution                                                  *)

let test_worker_attribution () =
  let jobs = 3 in
  let (), tr =
    record (fun () ->
        Domain_pool.with_pool ~jobs (fun pool ->
            Domain_pool.run pool (fun w ->
                Obs.span "task" (fun () -> ignore (Sys.opaque_identity w)))))
  in
  let events = Obs.events tr in
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (function Obs.Begin b -> Some b.tid | _ -> None)
         events)
  in
  Alcotest.(check (list int)) "every worker recorded its span"
    [ 0; 1; 2 ] tids;
  Alcotest.(check bool) "streams balanced" true (balanced events);
  Alcotest.(check int) "one dispatch counted" 1
    (counter_total Obs.Metric.Pool_dispatches events);
  Alcotest.(check bool) "busy time attributed" true
    (counter_total Obs.Metric.Pool_busy_ns events >= 0
     && List.exists
          (function
            | Obs.Count c -> c.metric = Obs.Metric.Pool_busy_ns
            | _ -> false)
          events)

(* ------------------------------------------------------------------ *)
(* golden Chrome trace: Merced.run on s27, normalised timestamps       *)

let golden_chrome_s27 =
  {|{"traceEvents":[
{"name":"merced.run","ph":"B","pid":0,"tid":0,"ts":0.000},
{"name":"merced.to_graph","ph":"B","pid":0,"tid":0,"ts":1.000},
{"name":"merced.to_graph","ph":"E","pid":0,"tid":0,"ts":2.000},
{"name":"merced.csr","ph":"B","pid":0,"tid":0,"ts":3.000},
{"name":"merced.csr","ph":"E","pid":0,"tid":0,"ts":4.000},
{"name":"merced.scc_budget","ph":"B","pid":0,"tid":0,"ts":5.000},
{"name":"merced.scc_budget","ph":"E","pid":0,"tid":0,"ts":6.000},
{"name":"flow.saturate","ph":"B","pid":0,"tid":0,"ts":7.000},
{"name":"flow.tree_nets","ph":"C","pid":0,"tid":0,"ts":8.000,"args":{"value":941}},
{"name":"flow.settled","ph":"C","pid":0,"tid":0,"ts":9.000,"args":{"value":1373}},
{"name":"flow.decreases","ph":"C","pid":0,"tid":0,"ts":10.000,"args":{"value":5}},
{"name":"flow.iterations","ph":"C","pid":0,"tid":0,"ts":11.000,"args":{"value":121}},
{"name":"flow.saturate","ph":"E","pid":0,"tid":0,"ts":12.000},
{"name":"cluster.make_group","ph":"B","pid":0,"tid":0,"ts":13.000},
{"name":"cluster.clusters","ph":"C","pid":0,"tid":0,"ts":14.000,"args":{"value":2}},
{"name":"cluster.make_group","ph":"E","pid":0,"tid":0,"ts":15.000},
{"name":"merced.assign","ph":"B","pid":0,"tid":0,"ts":16.000},
{"name":"merced.assign","ph":"E","pid":0,"tid":0,"ts":17.000},
{"name":"assign.partitions","ph":"C","pid":0,"tid":0,"ts":18.000,"args":{"value":1}},
{"name":"merced.area","ph":"B","pid":0,"tid":0,"ts":19.000},
{"name":"merced.area","ph":"E","pid":0,"tid":0,"ts":20.000},
{"name":"merced.cuts_total","ph":"C","pid":0,"tid":0,"ts":21.000,"args":{"value":0}},
{"name":"merced.sigma_dff","ph":"C","pid":0,"tid":0,"ts":22.000,"args":{"value":8.14}},
{"name":"merced.run","ph":"E","pid":0,"tid":0,"ts":23.000}
],"displayTimeUnit":"ms"}
|}

let test_golden_chrome () =
  let _, tr = record (fun () -> Merced.run (S27.circuit ())) in
  Alcotest.(check string) "chrome trace is byte-stable" golden_chrome_s27
    (Export.to_chrome ~normalise:true tr)

(* Truncated-span flush: exporting while spans are still open — the
   crash-path write of --trace, or a live snapshot of a running job —
   must yield balanced, loadable Chrome JSON, with synthetic E events
   closing innermost spans first. *)
let count_sub sub s =
  let m = String.length sub and n = String.length s in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let find_sub sub s =
  let m = String.length sub and n = String.length s in
  let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
  go 0

let test_truncated_span_flush () =
  let tr = Obs.create () in
  let mid = ref "" in
  Obs.with_installed tr (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () ->
              mid := Export.to_chrome ~normalise:true tr)));
  Alcotest.(check int) "mid-flight export is balanced"
    (count_sub "\"ph\":\"B\"" !mid)
    (count_sub "\"ph\":\"E\"" !mid);
  Alcotest.(check int) "both open spans flushed" 2
    (count_sub "\"ph\":\"B\"" !mid);
  (* the synthetic E's unwind the stack: inner closes before outer *)
  let e_inner = find_sub "{\"name\":\"inner\",\"ph\":\"E\"" !mid in
  let e_outer = find_sub "{\"name\":\"outer\",\"ph\":\"E\"" !mid in
  Alcotest.(check bool) "inner E present" true (e_inner >= 0);
  Alcotest.(check bool) "outer E present" true (e_outer >= 0);
  Alcotest.(check bool) "well-nested flush order" true (e_inner < e_outer);
  (* once the spans really close, the export carries no synthetic E *)
  let final = Export.to_chrome ~normalise:true tr in
  Alcotest.(check int) "final export balanced too"
    (count_sub "\"ph\":\"B\"" final)
    (count_sub "\"ph\":\"E\"" final)

let test_exporters_are_pure () =
  let _, tr = record (fun () -> Merced.run (S27.circuit ())) in
  Alcotest.(check string) "chrome idempotent"
    (Export.to_chrome ~normalise:true tr)
    (Export.to_chrome ~normalise:true tr);
  Alcotest.(check string) "human idempotent"
    (Export.to_human ~normalise:true tr)
    (Export.to_human ~normalise:true tr)

(* ------------------------------------------------------------------ *)
(* bench statistics                                                    *)

let test_bench_stat () =
  Alcotest.(check (float 1e-9)) "median odd" 2.0
    (Bench_stat.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Bench_stat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "mad" 1.0
    (Bench_stat.mad [| 1.0; 2.0; 3.0 |]);
  let s = Bench_stat.measure ~warmup:0 ~repeat:3 (fun () -> ()) in
  Alcotest.(check int) "samples" 3 s.Bench_stat.samples;
  Alcotest.(check bool) "median non-negative" true (s.Bench_stat.median_ns >= 0.)

(* The BENCH json schema goldens live in test_bench_format.ml, next to
   the netlist-format ones. *)

(* ------------------------------------------------------------------ *)
(* properties                                                          *)

let profile_of_seed seed =
  {
    Generator.name = Printf.sprintf "q%d" (seed land 0xFFFF);
    n_pi = 4 + (seed mod 5);
    n_dff = 3 + (seed mod 7);
    n_gates = 40 + (seed mod 60);
    n_inv = 5 + (seed mod 9);
    dff_on_scc = seed mod 3;
    area_target = None;
  }

(* the fingerprint of a compile that tracing must not perturb: the
   retimed netlist byte-for-byte plus the CSV row minus its CPU-time
   field (the one legitimately nondeterministic column) *)
let fingerprint c =
  let r = Merced.run c in
  let csv = Report.csv_row r in
  let csv_no_cpu =
    String.concat "," (List.rev (List.tl (List.rev (String.split_on_char ',' csv))))
  in
  let retimed =
    match Merced.retimed_netlist r with
    | None -> "<none>"
    | Some (emitted, dropped) ->
      Printf.sprintf "%s#%d"
        (Bench_writer.to_string emitted.Ppet_retiming.To_circuit.circuit)
        dropped
  in
  csv_no_cpu ^ "\n" ^ retimed

let prop_tracing_does_not_perturb =
  QCheck.Test.make ~name:"installed trace leaves Merced output byte-identical"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Generator.generate ~seed:(Int64.of_int seed) (profile_of_seed seed) in
      let bare = fingerprint c in
      let traced, _ = record (fun () -> fingerprint c) in
      String.equal bare traced)

let prop_span_trees_well_nested =
  QCheck.Test.make
    ~name:"span streams stay balanced under any pool interleaving" ~count:25
    QCheck.(pair (int_range 2 4) (int_range 1 5))
    (fun (jobs, depth) ->
      let (), tr =
        record (fun () ->
            Domain_pool.with_pool ~jobs (fun pool ->
                Domain_pool.run pool (fun w ->
                    let rec nest d =
                      if d = 0 then Obs.add Obs.Metric.Faults_simulated 1
                      else
                        Obs.span (Printf.sprintf "w%d-d%d" w d) (fun () ->
                            nest (d - 1))
                    in
                    nest depth)))
      in
      balanced (Obs.events tr))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "disabled sink is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span ends on exception" `Quick
      test_span_ends_on_exception;
    Alcotest.test_case "worker attribution" `Quick test_worker_attribution;
    Alcotest.test_case "golden chrome trace (s27)" `Quick test_golden_chrome;
    Alcotest.test_case "truncated spans flush balanced" `Quick
      test_truncated_span_flush;
    Alcotest.test_case "exporters are pure" `Quick test_exporters_are_pure;
    Alcotest.test_case "bench statistics" `Quick test_bench_stat;
    QCheck_alcotest.to_alcotest prop_tracing_does_not_perturb;
    QCheck_alcotest.to_alcotest prop_span_trees_well_nested;
  ]
