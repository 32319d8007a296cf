module Circuit = Ppet_netlist.Circuit

let title r = r.Merced.circuit.Circuit.title

let table10_header =
  Printf.sprintf "%-10s %8s %8s %12s %9s %9s" "Circuit" "DFFs" "DFF/SCC"
    "cuts-on-SCC" "nets-cut" "CPU(s)"

let table10_row r =
  let b = r.Merced.breakdown in
  Printf.sprintf "%-10s %8d %8d %12d %9d %9.2f" (title r)
    b.Area_accounting.dffs_total b.Area_accounting.dffs_on_scc
    b.Area_accounting.cuts_on_scc b.Area_accounting.cuts_total
    r.Merced.cpu_seconds

let table12_header =
  Printf.sprintf "%-10s | %9s %9s | %9s %9s" "Circuit" "16 w/R" "16 w/o"
    "24 w/R" "24 w/o"

let table12_row ~l16 ~l24 =
  let b = l16.Merced.breakdown in
  let w24, wo24 =
    match l24 with
    | Some r ->
      ( Printf.sprintf "%9.1f" r.Merced.breakdown.Area_accounting.ratio_with,
        Printf.sprintf "%9.1f" r.Merced.breakdown.Area_accounting.ratio_without )
    | None -> (Printf.sprintf "%9s" "0", Printf.sprintf "%9s" "0")
  in
  Printf.sprintf "%-10s | %9.1f %9.1f | %s %s" (title l16)
    b.Area_accounting.ratio_with b.Area_accounting.ratio_without w24 wo24

let summary r =
  let b = r.Merced.breakdown in
  let buf = Buffer.create 512 in
  let n_partitions = List.length r.Merced.assignment.Assign.partitions in
  Printf.bprintf buf "Merced result for %s (l_k = %d)\n" (title r)
    r.Merced.params.Params.l_k;
  Printf.bprintf buf "  flow: %d shortest-path trees injected\n"
    r.Merced.flow.Flow.iterations;
  Printf.bprintf buf "  clusters: %d (boundaries used: %d)\n"
    (List.length r.Merced.clustering.Cluster.clusters)
    r.Merced.clustering.Cluster.boundaries_used;
  Printf.bprintf buf "  partitions: %d after %d merges\n" n_partitions
    r.Merced.assignment.Assign.merges;
  Printf.bprintf buf "  cut nets: %d (%d on SCCs; %d retimable, %d muxed)\n"
    b.Area_accounting.cuts_total b.Area_accounting.cuts_on_scc
    b.Area_accounting.retimable b.Area_accounting.mux_excess;
  Printf.bprintf buf
    "  CBIT area: %.0f units w/ retiming vs %.0f w/o (%.1f%% vs %.1f%% of \
     total)\n"
    b.Area_accounting.area_with_retiming
    b.Area_accounting.area_without_retiming b.Area_accounting.ratio_with
    b.Area_accounting.ratio_without;
  Printf.bprintf buf "  sigma (Eq. 4): %.2f DFF; testing time: %.3g cycles\n"
    r.Merced.sigma_dff r.Merced.testing_time;
  Printf.bprintf buf "  CPU: %.2f s" r.Merced.cpu_seconds;
  Buffer.contents buf

let csv_header =
  "circuit,l_k,dffs,dffs_on_scc,cuts_total,cuts_on_scc,retimable,mux_excess,\
   partitions,area_circuit,area_cbit_retimed,area_cbit_plain,ratio_with,\
   ratio_without,sigma_dff,testing_time,cpu_seconds"

(* Machine-readable perf baselines (BENCH_*.json artefacts). Every bench
   group — the fault-sim shootout and the pipeline sweep alike — goes
   through this one emitter so the artefacts stay schema-identical and
   diffable across PRs. *)
type bench_circuit = {
  gates : int;
  dffs : int;
  edges : int;
  segments : int;
      (* Merced partition count; 0 = not stamped (pre-compile stats, or
         an artefact from before the partition shape was stamped) *)
  largest_cluster : int;
      (* member gates of the biggest combinational segment; 0 = not
         stamped *)
}

(* Same workload? Structural fields must agree; the partition-shape
   fields only when both sides actually recorded them, so old baselines
   stay comparable (0 is the "not stamped" wildcard). *)
let bench_stats_compatible a b =
  a.gates = b.gates && a.dffs = b.dffs && a.edges = b.edges
  && (a.segments = 0 || b.segments = 0 || a.segments = b.segments)
  && (a.largest_cluster = 0 || b.largest_cluster = 0
      || a.largest_cluster = b.largest_cluster)

type bench_entry = {
  entry_name : string;
  median_ns : float;
  mad_ns : float;
  jobs : int;
  circuit_stats : bench_circuit option;
}

let bench_json ~name ~entries =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\n  \"name\": \"%s\",\n  \"entries\": [" (String.escaped name);
  List.iteri
    (fun i e ->
      Printf.bprintf buf "%s\n    { \"name\": \"%s\", \"median_ns\": %.6g, \
                          \"mad_ns\": %.6g, \"jobs\": %d"
        (if i = 0 then "" else ",")
        (String.escaped e.entry_name) e.median_ns e.mad_ns e.jobs;
      (match e.circuit_stats with
       | None -> ()
       | Some c ->
         Printf.bprintf buf ", \"gates\": %d, \"dffs\": %d, \"edges\": %d"
           c.gates c.dffs c.edges;
         if c.segments > 0 || c.largest_cluster > 0 then
           Printf.bprintf buf ", \"segments\": %d, \"largest_cluster\": %d"
             c.segments c.largest_cluster);
      Buffer.add_string buf " }")
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* Minimal reader of the emitter above — one entry object per line, keys
   in a fixed order — NOT a general JSON parser. It only has to read
   artefacts this very module wrote, so a line-oriented scan is enough
   and keeps the regression guard dependency-free. *)
let bench_entries_of_json text =
  let field_after line key =
    let klen = String.length key in
    let rec find i =
      if i + klen > String.length line then None
      else if String.sub line i klen = key then Some (i + klen)
      else find (i + 1)
    in
    find 0
  in
  let until_delim line start =
    let stop = ref start in
    let n = String.length line in
    while
      !stop < n
      && (match line.[!stop] with ',' | ' ' | '}' | '"' -> false | _ -> true)
    do
      incr stop
    done;
    String.sub line start (!stop - start)
  in
  let entries = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match
           ( field_after line "\"name\": \"",
             field_after line "\"median_ns\": ",
             field_after line "\"mad_ns\": ",
             field_after line "\"jobs\": " )
         with
         | Some n0, Some m0, Some a0, Some j0 ->
           let name =
             match String.index_from_opt line n0 '"' with
             | Some n1 -> String.sub line n0 (n1 - n0)
             | None -> until_delim line n0
           in
           let stats =
             match
               ( field_after line "\"gates\": ",
                 field_after line "\"dffs\": ",
                 field_after line "\"edges\": " )
             with
             | Some g0, Some d0, Some e0 ->
               let opt key =
                 match field_after line key with
                 | Some o -> int_of_string (until_delim line o)
                 | None -> 0
               in
               Some
                 {
                   gates = int_of_string (until_delim line g0);
                   dffs = int_of_string (until_delim line d0);
                   edges = int_of_string (until_delim line e0);
                   segments = opt "\"segments\": ";
                   largest_cluster = opt "\"largest_cluster\": ";
                 }
             | _ -> None
           in
           entries :=
             {
               entry_name = name;
               median_ns = float_of_string (until_delim line m0);
               mad_ns = float_of_string (until_delim line a0);
               jobs = int_of_string (until_delim line j0);
               circuit_stats = stats;
             }
             :: !entries
         | _ -> ());
  List.rev !entries

let csv_row r =
  let b = r.Merced.breakdown in
  Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%.1f,%.1f,%.2f,%.2f,%.2f,%.6g,%.3f"
    (title r) r.Merced.params.Params.l_k b.Area_accounting.dffs_total
    b.Area_accounting.dffs_on_scc b.Area_accounting.cuts_total
    b.Area_accounting.cuts_on_scc b.Area_accounting.retimable
    b.Area_accounting.mux_excess
    (List.length r.Merced.assignment.Assign.partitions)
    b.Area_accounting.circuit_area b.Area_accounting.area_with_retiming
    b.Area_accounting.area_without_retiming b.Area_accounting.ratio_with
    b.Area_accounting.ratio_without r.Merced.sigma_dff r.Merced.testing_time
    r.Merced.cpu_seconds
