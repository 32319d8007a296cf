(* The compile back end — the requirement-drop loop, Retime.apply and
   the two netlist emitters — against values recorded before it was
   rewritten, against the literal implementations in Backend_oracle,
   and against allocation bounds. *)

module Circuit = Ppet_netlist.Circuit
module Generator = Ppet_netlist.Generator
module Benchmarks = Ppet_netlist.Benchmarks
module Bench_writer = Ppet_netlist.Bench_writer
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module To_circuit = Ppet_retiming.To_circuit
module L = Ppet_retiming.Logic3
module Merced = Ppet_core.Merced
module Params = Ppet_core.Params
module Testable = Ppet_core.Testable
module Obs = Ppet_obs.Obs

let hex s = Digest.to_hex (Digest.string s)
let ints l = String.concat "," (List.map string_of_int l)

let circuit_of name =
  if name = "s27" then Ppet_netlist.S27.circuit () else Benchmarks.circuit name

(* ------------------------------------------------------------------ *)
(* Pins: recorded at the product defaults before the drop loop resumed
   its aborted runs, Retime.apply ran from a worklist and the emitters
   built their netlists by id. The relaxation total is an exact work
   count: it moves if a resumed run queues other vertices or in another
   order. The s5378 and s9234.1 rows were recorded again when
   Assign_CBIT stopped sampling its candidates, which changed their
   partitions; the s27 row, below that size, did not move. *)

let pins =
  [
    ( "s27", 3, "58de48e1091d1f4b2a8f87c4a735a42a",
      "d41d8cd98f00b204e9800998ecf8427e", 3, 3, 43,
      "dccd1052ae54522a50a74ca11cc04206", "0baa756457c942cff3363761c865940c",
      "55e580e3772abf6facbab25fead133cd" );
    ( "s5378", 16, "163564ea60b666be98a9354870879b2c",
      "73a0c26f855c2c4864967daddc17f306", 407, 52, 227671,
      "96439601a5f02929bab13d6d7619dc73", "879042165e4d151d79de5a5c91a83993",
      "adddf3ae2ed09bad0054995d0dc9b0f9" );
    ( "s9234.1", 16, "f04be728ee0ba85bed8bd00f61581414",
      "3a8147d54ecf49eaa999e8c7662e3e3a", 938, 103, 1029963,
      "a80af97fed06053c29ae4006fbec6b62", "e76527eb816bc72444d64105fba978bd",
      "24797303f8207c623e5b860642791a84" );
  ]

let test_pins () =
  List.iter
    (fun (name, lk, rho, required, dropped, rounds, relaxations, retimed,
          testable, inits) ->
      let what field = Printf.sprintf "%s l_k %d: %s" name lk field in
      let r = Merced.run ~params:(Params.with_lk lk) (circuit_of name) in
      let tr = Obs.create () in
      let cert =
        match Obs.with_installed tr (fun () -> Merced.retiming_certificate r) with
        | Some cert -> cert
        | None -> Alcotest.fail (what "no certificate")
      in
      let events = Obs.events tr in
      let spans =
        List.length
          (List.filter
             (function Obs.Begin { name = "retime.solve"; _ } -> true | _ -> false)
             events)
      in
      let relaxed =
        List.fold_left
          (fun acc -> function
            | Obs.Count { metric = Obs.Metric.Bf_relaxations; value; _ } -> acc + value
            | _ -> acc)
          0 events
      in
      let e = Merced.apply_certificate r cert in
      let t = Testable.insert r in
      Alcotest.(check string) (what "cert_rho") rho
        (hex (ints (Array.to_list cert.Merced.cert_rho)));
      Alcotest.(check string) (what "cert_required") required
        (hex (ints cert.Merced.cert_required));
      Alcotest.(check int) (what "cert_dropped") dropped cert.Merced.cert_dropped;
      Alcotest.(check int) (what "retime.solve spans") rounds spans;
      Alcotest.(check int) (what "relaxations") relaxations relaxed;
      Alcotest.(check string) (what "retimed .bench") retimed
        (hex (Bench_writer.to_string e.To_circuit.circuit));
      Alcotest.(check string) (what "testable .bench") testable
        (hex (Bench_writer.to_string t.Testable.circuit));
      Alcotest.(check string) (what "register_inits") inits
        (hex
           (String.concat ";"
              (List.map
                 (fun (n, v) -> n ^ "=" ^ String.make 1 (L.to_char v))
                 e.To_circuit.register_inits))))
    pins

(* ------------------------------------------------------------------ *)
(* Resumed drop rounds: [Solver.resume] must continue exactly as a warm
   restart from the aborted run's labels ([run_cycles ~warm]), which
   scans every arc for its queue: same outcome, same relaxation count,
   same labels left behind. *)

let counting f =
  let tr = Obs.create () in
  let v = Obs.with_installed tr f in
  let relaxations =
    List.fold_left
      (fun acc -> function
        | Obs.Count { metric = Obs.Metric.Bf_relaxations; value; _ } -> acc + value
        | _ -> acc)
      0 (Obs.events tr)
  in
  (v, relaxations)

(* Drive a drop loop over [req] (registers required on every out-edge
   of a vertex): each aborted round lowers by one the requirement of
   every vertex on its cycles that still has one, or of every vertex
   when no cycle carries one. Returns the rounds resumed. *)
let resumed_rounds rg req =
  let a = Retime.Solver.create rg and b = Retime.Solver.create rg in
  let require e = req.(rg.Rgraph.edges.(e).Rgraph.tail) in
  let release v =
    req.(v) <- req.(v) - 1;
    Retime.Solver.release a v
  in
  let rec go outcome rounds =
    match outcome with
    | Ok _ -> rounds
    | Error cycles ->
      if rounds > 200 then Alcotest.fail "drop loop does not converge";
      let labels = Retime.Solver.potentials a in
      let released = ref false in
      List.iter
        (List.iter (fun v ->
             if req.(v) > 0 then begin
               release v;
               released := true
             end))
        cycles;
      if not !released then Array.iteri (fun v r -> if r > 0 then release v) req;
      let resumed, na = counting (fun () -> Retime.Solver.resume a) in
      let restarted, nb =
        counting (fun () -> Retime.Solver.run_cycles b ~warm:labels ~require)
      in
      if resumed <> restarted then
        Alcotest.failf "round %d: resume and warm restart disagree" rounds;
      if na <> nb then
        Alcotest.failf "round %d: %d relaxations resumed, %d restarted" rounds na nb;
      if Retime.Solver.potentials a <> Retime.Solver.potentials b then
        Alcotest.failf "round %d: resume and warm restart leave other labels" rounds;
      go resumed (rounds + 1)
  in
  go (Retime.Solver.run_cycles a ~require) 0

let random_requirements rg seed =
  Array.mapi
    (fun v k ->
      match k with
      | Rgraph.Vgate _ when ((v * 2654435761) lxor seed) land 3 <> 0 -> 1 + (seed land 1)
      | Rgraph.Vgate _ | Rgraph.Vpi _ | Rgraph.Vhost -> 0)
    rg.Rgraph.kinds

let test_resume_random () =
  let rounds = ref 0 in
  for seed = 1 to 150 do
    let c =
      Generator.small_random ~seed:(Int64.of_int seed) ~n_pi:3
        ~n_dff:(2 + (seed mod 6))
        ~n_gates:(10 + (seed mod 50))
    in
    let rg = Rgraph.of_circuit c in
    rounds := !rounds + resumed_rounds rg (random_requirements rg seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d resumed rounds agree" !rounds)
    true (!rounds >= 100)

(* The relax-count cutoff, which the pred-forest sweep pre-empts on
   every circuit above: gate g reads input a through 6, 5, .., 0
   registers, and requiring 7 on each of those edges gives g seven
   parallel constraint arcs to a, each shorter than the last. The first
   scan of g relaxes a seven times (n = 3) before the pred forest holds
   a cycle, so the count restarts and the run goes on; g's second scan
   passes it again with the cycle a -> host -> g in the forest and stops
   in mid-scan. The resumed queue must then hold a (its label dropped
   without queueing it) and g (its scan was cut short). *)
let test_resume_after_cutoff () =
  let src =
    "INPUT(a)\nOUTPUT(g)\nq1 = DFF(a)\nq2 = DFF(q1)\nq3 = DFF(q2)\n\
     q4 = DFF(q3)\nq5 = DFF(q4)\nq6 = DFF(q5)\n\
     g = AND(q6, q5, q4, q3, q2, q1, a)\n"
  in
  let rg = Rgraph.of_circuit (Ppet_netlist.Bench_parser.parse_string src) in
  let req = Array.make (Rgraph.n_vertices rg) 0 in
  req.(0) <- 7;
  Alcotest.(check bool) "a drives g" true (Rgraph.vertex_name rg 0 = "a");
  Alcotest.(check bool) "several resumed rounds" true (resumed_rounds rg req >= 2)

(* ------------------------------------------------------------------ *)
(* Oracles over generated circuits. *)

let random_circuit seed =
  Generator.small_random ~seed:(Int64.of_int seed) ~n_pi:3
    ~n_dff:(3 + (seed mod 5))
    ~n_gates:(12 + (seed mod 30))

(* Requirements on the out-edges of a pseudo-random subset of the gate
   vertices; [density] 0 asks for one vertex only, where retiming moves
   few registers and the constructive pass usually completes. *)
let requirement rg ~seed ~density =
  let gates = ref [] in
  for v = Rgraph.n_vertices rg - 1 downto 0 do
    match rg.Rgraph.kinds.(v) with
    | Rgraph.Vgate _ -> gates := v :: !gates
    | Rgraph.Vpi _ | Rgraph.Vhost -> ()
  done;
  let gates = Array.of_list !gates in
  let wanted = Array.make (Rgraph.n_vertices rg) false in
  if Array.length gates > 0 then begin
    if density = 0 then wanted.(gates.(seed mod Array.length gates)) <- true
    else
      Array.iteri
        (fun i v -> if ((i * 2654435761) lxor seed) land 7 < density then wanted.(v) <- true)
        gates
  end;
  fun e -> if wanted.(rg.Rgraph.edges.(e).Rgraph.tail) then 1 + (seed land 1) else 0

let same_graph (a : Rgraph.t) (b : Rgraph.t) =
  a.Rgraph.kinds = b.Rgraph.kinds
  && a.Rgraph.out_edges = b.Rgraph.out_edges
  && a.Rgraph.in_edges = b.Rgraph.in_edges
  && a.Rgraph.host = b.Rgraph.host
  && Array.length a.Rgraph.edges = Array.length b.Rgraph.edges
  && Array.for_all2
       (fun (x : Rgraph.edge) (y : Rgraph.edge) ->
         x.Rgraph.tail = y.Rgraph.tail && x.Rgraph.head = y.Rgraph.head
         && x.Rgraph.weight = y.Rgraph.weight
         && List.equal L.equal x.Rgraph.inits y.Rgraph.inits)
       a.Rgraph.edges b.Rgraph.edges

(* Whether the oracle's pass completed without a conflict: then some
   lagged edge keeps a concrete initial value, which the X fallback
   never leaves. *)
let constructive rg rho (applied : Rgraph.t) =
  let moved = ref false in
  Array.iteri
    (fun i (e : Rgraph.edge) ->
      let e' = applied.Rgraph.edges.(i) in
      if (rho.(e.Rgraph.tail) <> 0 || rho.(e.Rgraph.head) <> 0)
         && List.exists (fun v -> not (L.equal v L.X)) e'.Rgraph.inits
      then moved := true)
    rg.Rgraph.edges;
  !moved

(* The same netlist with its gates declared in reverse, so vertex ids
   run against the signal flow: a move then often waits on a vertex the
   worklist has already passed, which only the wake-up of the moving
   vertex's neighbours brings back. *)
let reversed (c : Circuit.t) =
  let b = Circuit.Builder.create c.Circuit.title in
  Array.iter (fun i -> Circuit.Builder.add_input b (Circuit.node c i).Circuit.name) c.Circuit.inputs;
  for id = Circuit.size c - 1 downto 0 do
    let nd = Circuit.node c id in
    if nd.Circuit.kind <> Ppet_netlist.Gate.Input then
      Circuit.Builder.add_gate b ~name:nd.Circuit.name ~kind:nd.Circuit.kind
        ~fanins:
          (List.map (fun f -> (Circuit.node c f).Circuit.name) (Array.to_list nd.Circuit.fanins))
  done;
  Array.iter (fun o -> Circuit.Builder.add_output b (Circuit.node c o).Circuit.name) c.Circuit.outputs;
  Circuit.Builder.finish b

let solved ?(flip = false) seed density =
  let c = random_circuit seed in
  let rg = Rgraph.of_circuit (if flip then reversed c else c) in
  match Retime.solve rg ~require:(requirement rg ~seed ~density) with
  | Retime.Feasible rho -> Some (rg, rho)
  | Retime.Infeasible _ -> None

(* Retime.apply against the sweep oracle on fixed seeds, at four
   requirement densities, on the generated circuits and on the same
   circuits declared in reverse. It counts the runs the constructive
   pass completes: the large circuits always fall back, so the
   worklist's completed passes are only checked here. *)
let test_apply () =
  let constructive_runs = ref 0 and fallbacks = ref 0 in
  for seed = 1 to 240 do
    match solved ~flip:(seed > 120) seed (seed mod 4) with
    | None -> ()
    | Some (rg, rho) ->
      let oracle = Backend_oracle.apply rg rho in
      if not (same_graph (Retime.apply rg rho) oracle) then
        Alcotest.failf "seed %d: Retime.apply differs from the oracle" seed;
      if Array.exists (fun r -> r <> 0) rho then
        if constructive rg rho oracle then incr constructive_runs else incr fallbacks
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d constructive and %d fallback runs" !constructive_runs !fallbacks)
    true
    (!constructive_runs >= 10 && !fallbacks >= 1)

let prop_emit =
  QCheck.Test.make ~name:"To_circuit.circuit_of = by-name oracle" ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, density) ->
      let graphs =
        let rg = Rgraph.of_circuit (random_circuit seed) in
        rg
        :: (match solved seed density with
            | Some (rg, rho) -> [ Retime.apply rg rho ]
            | None -> [])
      in
      List.for_all
        (fun g ->
          let a = To_circuit.circuit_of ~title:"t" g in
          let b = Backend_oracle.circuit_of ~title:"t" g in
          a.To_circuit.circuit = b.To_circuit.circuit
          && a.To_circuit.register_inits = b.To_circuit.register_inits)
        graphs)

let prop_insert =
  QCheck.Test.make ~name:"Testable.insert = by-name oracle" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range 3 8))
    (fun (seed, lk) ->
      let r = Merced.run ~params:(Params.with_lk lk) (random_circuit seed) in
      let a = Testable.insert r and b = Backend_oracle.insert r in
      a.Testable.circuit = b.Testable.circuit
      && a.Testable.cells = b.Testable.cells
      && a.Testable.groups = b.Testable.groups
      && a.Testable.added_area = b.Testable.added_area)

(* ------------------------------------------------------------------ *)
(* Allocation guards, in minor words. *)

(* One drop round: release the requirements on an aborted run's cycles
   and resume. Besides the cycle lists it returns, a round allocates a
   few words of closures, nothing of the graph's size. *)
let test_drop_round_allocation () =
  let r = Merced.run ~params:(Params.with_lk 16) (circuit_of "s9234.1") in
  let rg = Rgraph.of_circuit r.Merced.circuit in
  let n = Rgraph.n_vertices rg in
  let required = Array.make n false in
  (* every gate vertex that drives a cut net, as solve_requirements asks *)
  let vertex = Hashtbl.create n in
  Array.iteri
    (fun v k ->
      match k with
      | Rgraph.Vgate (_, name) -> Hashtbl.replace vertex name v
      | Rgraph.Vpi _ | Rgraph.Vhost -> ())
    rg.Rgraph.kinds;
  List.iter
    (fun e ->
      let driver = Ppet_digraph.Netgraph.net_src r.Merced.graph e in
      let name = (Circuit.node r.Merced.circuit driver).Circuit.name in
      Option.iter (fun v -> required.(v) <- true) (Hashtbl.find_opt vertex name))
    r.Merced.assignment.Ppet_core.Assign.cut_nets;
  let solver = Retime.Solver.create rg in
  let require e = if required.(rg.Rgraph.edges.(e).Rgraph.tail) then 1 else 0 in
  let list_words cycles =
    List.fold_left (fun acc c -> acc + 6 + (3 * List.length c)) 0 cycles
  in
  let rounds = ref 0 and worst = ref 0. in
  let rec go = function
    | Ok _ -> ()
    | Error cycles ->
      let before = Gc.minor_words () in
      List.iter
        (List.iter (fun v ->
             if required.(v) then begin
               required.(v) <- false;
               Retime.Solver.release solver v
             end))
        cycles;
      let next = Retime.Solver.resume solver in
      let words = Gc.minor_words () -. before in
      let own =
        match next with Ok _ -> words -. float_of_int (n + 1) | Error c -> words -. float_of_int (list_words c)
      in
      incr rounds;
      if own > !worst then worst := own;
      (match next with Ok _ -> () | Error _ -> go next)
  in
  go (Retime.Solver.run_cycles solver ~require);
  Alcotest.(check bool) "several rounds" true (!rounds > 10);
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds, at most %.0f words beyond the cycle lists (n = %d, bound 256)"
       !rounds !worst n)
    true (!worst < 256.)

(* Emission and insertion allocate a bounded number of words per node
   they emit: the node records, fanin arrays, names and the validation
   table, no per-node lists or formatted contexts. *)
let test_emit_insert_allocation () =
  let r = Merced.run ~params:(Params.with_lk 16) (circuit_of "s9234.1") in
  let cert = Option.get (Merced.retiming_certificate r) in
  let applied = Retime.apply cert.Merced.cert_graph cert.Merced.cert_rho in
  let per_node f size =
    let before = Gc.minor_words () in
    let x = f () in
    (Gc.minor_words () -. before) /. float_of_int (size x)
  in
  let emit =
    per_node (fun () -> To_circuit.circuit_of applied)
      (fun e -> Circuit.size e.To_circuit.circuit)
  in
  let insert =
    per_node (fun () -> Testable.insert r) (fun t -> Circuit.size t.Testable.circuit)
  in
  Alcotest.(check bool)
    (Printf.sprintf "emission %.0f words per node (bound 80)" emit)
    true (emit < 80.);
  Alcotest.(check bool)
    (Printf.sprintf "insertion %.0f words per node (bound 80)" insert)
    true (insert < 80.)

let suite =
  [
    Alcotest.test_case "pins (s27, s5378, s9234.1)" `Quick test_pins;
    Alcotest.test_case "resume = warm restart (generated circuits)" `Quick
      test_resume_random;
    Alcotest.test_case "resume = warm restart after a cutoff" `Quick
      test_resume_after_cutoff;
    Alcotest.test_case "Retime.apply = sweep oracle" `Quick test_apply;
    QCheck_alcotest.to_alcotest prop_emit;
    QCheck_alcotest.to_alcotest prop_insert;
    Alcotest.test_case "drop round allocation (s9234.1)" `Quick
      test_drop_round_allocation;
    Alcotest.test_case "emission and insertion allocation (s9234.1)" `Quick
      test_emit_insert_allocation;
  ]
