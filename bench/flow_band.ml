(* Flow budget band: how many Saturate_Network trees partition quality
   needs. Runs Merced.run at l_k 16 over ten flow seeds on the
   seventeen paper profiles plus synth10k, at the paper's min_visit 20
   and at smaller candidates. The paper budget's runs span a band per
   circuit; a candidate passes a circuit when its median cut nets and
   its median Table 12 area (with retiming) both lie at or below the
   band's maximum over the same seeds.

   Run with: dune exec bench/flow_band.exe (~3 min on 2 cores).
   Prints the comparison table and writes BENCH_flow_band.json to the
   cwd. Exits 1 when Params.default's min_visit fails a circuit. *)

module Benchmarks = Ppet_netlist.Benchmarks
module Params = Ppet_core.Params
module Merced = Ppet_core.Merced
module Flow = Ppet_core.Flow
module Area = Ppet_core.Area_accounting
module Obs = Ppet_obs.Obs
module Bench_stat = Ppet_obs.Bench_stat

let reference = 20
let candidates = [ 2; 3; 5 ]
let l_k = 16
let circuits = Benchmarks.names @ [ "synth10k" ]

(* ten flow seeds, the product's first *)
let seeds = List.init 10 (fun i -> Int64.add Params.paper.Params.seed (Int64.of_int i))

type run = {
  trees : int;
  inputless : int;
  cuts : int;
  area : float;
  run_s : float;
}

let inputless_trees tr =
  List.fold_left
    (fun acc -> function
      | Obs.Count { metric = Obs.Metric.Flow_inputless_trees; value; _ } ->
        acc + value
      | _ -> acc)
    0 (Obs.events tr)

let run_once c ~min_visit ~seed =
  let params = { Params.paper with Params.l_k; min_visit; seed } in
  let tr = Obs.create () in
  let t0 = Unix.gettimeofday () in
  let r = Obs.with_installed tr (fun () -> Merced.run ~params c) in
  let run_s = Unix.gettimeofday () -. t0 in
  let b = r.Merced.breakdown in
  {
    trees = r.Merced.flow.Flow.iterations;
    inputless = inputless_trees tr;
    cuts = b.Area.cuts_total;
    area = b.Area.area_with_retiming;
    run_s;
  }

type row = {
  circuit : string;
  min_visit : int;
  runs : run list;  (* one per seed, in seed order *)
  verdict : string;
}

let floats f runs = Array.of_list (List.map f runs)
let median f runs = Bench_stat.median (floats f runs)
let lo f runs = Array.fold_left Float.min infinity (floats f runs)
let hi f runs = Array.fold_left Float.max neg_infinity (floats f runs)
let cuts r = float_of_int r.cuts
let area r = r.area

let verdict ~band runs =
  if median cuts runs <= hi cuts band && median area runs <= hi area band
  then "pass"
  else "FAIL"

let print_header () =
  Printf.printf "%-9s %3s %6s %6s | %8s %13s | %10s %19s | %7s  %s\n"
    "circuit" "mv" "trees" "pi" "cuts" "[min-max]" "area" "[min-max]" "run_s"
    "verdict";
  print_endline (String.make 100 '-')

let print_row r =
  let m f = median f r.runs in
  Printf.printf
    "%-9s %3d %6.0f %6.0f | %8.1f %13s | %10.1f %19s | %7.3f  %s\n%!"
    r.circuit r.min_visit
    (m (fun x -> float_of_int x.trees))
    (m (fun x -> float_of_int x.inputless))
    (m cuts)
    (Printf.sprintf "[%.0f-%.0f]" (lo cuts r.runs) (hi cuts r.runs))
    (m area)
    (Printf.sprintf "[%.0f-%.0f]" (lo area r.runs) (hi area r.runs))
    (m (fun x -> x.run_s))
    r.verdict

let json_ints f runs =
  "[" ^ String.concat ", " (List.map (fun x -> string_of_int (f x)) runs) ^ "]"

let json_floats f runs =
  "["
  ^ String.concat ", " (List.map (fun x -> Printf.sprintf "%.6g" (f x)) runs)
  ^ "]"

let write_json ~path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"name\": \"flow_band\",\n";
  Printf.fprintf oc "  \"nproc\": %d,\n  \"ocaml\": %S,\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.fprintf oc "  \"l_k\": %d,\n  \"reference_min_visit\": %d,\n" l_k
    reference;
  Printf.fprintf oc "  \"candidates\": [%s],\n"
    (String.concat ", " (List.map string_of_int candidates));
  Printf.fprintf oc "  \"seeds\": [%s],\n"
    (String.concat ", " (List.map Int64.to_string seeds));
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"circuit\": %S, \"min_visit\": %d, \"verdict\": %S, \
         \"trees\": %s, \"inputless_trees\": %s, \"cut_nets\": %s, \
         \"area_with_retiming\": %s, \"run_s\": %s }%s\n"
        r.circuit r.min_visit r.verdict
        (json_ints (fun x -> x.trees) r.runs)
        (json_ints (fun x -> x.inputless) r.runs)
        (json_ints (fun x -> x.cuts) r.runs)
        (json_floats area r.runs)
        (json_floats (fun x -> x.run_s) r.runs)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  Printf.printf
    "Flow budget band: l_k %d, %d flow seeds, min_visit %d vs %s\n\
     (pi = trees rooted at a vertex without in-nets; medians, range in \
     brackets)\n\n"
    l_k (List.length seeds) reference
    (String.concat ", " (List.map string_of_int candidates));
  print_header ();
  let rows =
    List.concat_map
      (fun circuit ->
        let c = Benchmarks.circuit circuit in
        let runs min_visit =
          List.map (fun seed -> run_once c ~min_visit ~seed) seeds
        in
        let band = runs reference in
        let rows =
          { circuit; min_visit = reference; runs = band; verdict = "band" }
          :: List.map
               (fun min_visit ->
                 let rs = runs min_visit in
                 { circuit; min_visit; runs = rs; verdict = verdict ~band rs })
               candidates
        in
        List.iter print_row rows;
        rows)
      circuits
  in
  let failed mv =
    List.filter_map
      (fun r -> if r.min_visit = mv && r.verdict = "FAIL" then Some r.circuit else None)
      rows
  in
  print_newline ();
  List.iter
    (fun mv ->
      match failed mv with
      | [] -> Printf.printf "min_visit %d: passes on every circuit\n" mv
      | fs -> Printf.printf "min_visit %d: fails on %s\n" mv (String.concat ", " fs))
    candidates;
  let shipped = Params.default.Params.min_visit in
  let shipped_fails = failed shipped <> [] in
  Printf.printf "Params.default.min_visit = %d%s\n" shipped
    (if shipped_fails then " — FAILS the band" else "");
  write_json ~path:"BENCH_flow_band.json" rows;
  Printf.printf "wrote BENCH_flow_band.json\n";
  if shipped_fails then exit 1
