module Circuit = Ppet_netlist.Circuit
module Parser = Ppet_netlist.Bench_parser
module Generator = Ppet_netlist.Generator
module Rgraph = Ppet_retiming.Rgraph
module Retime = Ppet_retiming.Retime
module L = Ppet_retiming.Logic3

let pipeline_src =
  "INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\ng1 = NOT(q1)\nq2 = DFF(g1)\ny = BUFF(q2)\n"

let ring_src =
  (* one register on a two-gate loop: chi <= f allows one cut *)
  "INPUT(a)\nOUTPUT(y)\nq = DFF(g2)\ng1 = AND(q, a)\ng2 = NOT(g1)\ny = BUFF(g1)\n"

let vertex_of rg name =
  let rec loop v =
    if v >= Rgraph.n_vertices rg then raise Not_found
    else if Rgraph.vertex_name rg v = name then v
    else loop (v + 1)
  in
  loop 0

let test_identity_feasible () =
  let rg = Rgraph.of_circuit (Parser.parse_string pipeline_src) in
  match Retime.solve rg ~require:(fun _ -> 0) with
  | Retime.Feasible rho ->
    Alcotest.(check bool) "legal" true (Retime.is_legal rg rho)
  | Retime.Infeasible _ -> Alcotest.fail "identity must be feasible"

let test_move_register_forward () =
  (* demand BOTH pipeline registers on g1's output: the register in front
     of g1 must move forward across the inverter *)
  let rg = Rgraph.of_circuit (Parser.parse_string pipeline_src) in
  let g1 = vertex_of rg "g1" in
  let require e = if rg.Rgraph.edges.(e).Rgraph.tail = g1 then 2 else 0 in
  (match Retime.solve rg ~require with
   | Retime.Feasible rho ->
     Alcotest.(check bool) "legal" true (Retime.is_legal rg rho);
     Alcotest.(check bool) "g1 lags" true (rho.(g1) < 0);
     Array.iteri
       (fun i (e : Rgraph.edge) ->
         if e.Rgraph.tail = g1 then
           Alcotest.(check bool) "registers present" true
             (Retime.retimed_weight rg rho i >= 2))
       rg.Rgraph.edges
   | Retime.Infeasible _ -> Alcotest.fail "should be feasible")

let test_loop_budget_respected () =
  (* the ring has one register; requiring registers on BOTH loop gate
     outputs violates Eq. 2 and must be infeasible *)
  let rg = Rgraph.of_circuit (Parser.parse_string ring_src) in
  let g1 = vertex_of rg "g1" and g2 = vertex_of rg "g2" in
  let require e =
    let t = rg.Rgraph.edges.(e).Rgraph.tail in
    if t = g1 || t = g2 then 1 else 0
  in
  (match Retime.solve rg ~require with
   | Retime.Feasible _ -> Alcotest.fail "chi > f must be infeasible"
   | Retime.Infeasible cycle ->
     Alcotest.(check bool) "cycle reported" true (List.length cycle >= 2);
     Alcotest.(check bool) "cycle contains a loop gate" true
       (List.exists (fun v -> v = g1 || v = g2) cycle))

let test_loop_single_requirement_feasible () =
  let rg = Rgraph.of_circuit (Parser.parse_string ring_src) in
  let g2 = vertex_of rg "g2" in
  let require e = if rg.Rgraph.edges.(e).Rgraph.tail = g2 then 1 else 0 in
  match Retime.solve rg ~require with
  | Retime.Feasible rho ->
    Alcotest.(check bool) "legal" true (Retime.is_legal rg rho)
  | Retime.Infeasible _ -> Alcotest.fail "chi = f must be feasible"

let test_cycle_weight_invariant () =
  (* Eq. 2: any legal retiming keeps loop register counts *)
  let rg = Rgraph.of_circuit (Parser.parse_string ring_src) in
  let g2 = vertex_of rg "g2" in
  let require e = if rg.Rgraph.edges.(e).Rgraph.tail = g2 then 1 else 0 in
  match Retime.solve rg ~require with
  | Retime.Infeasible _ -> Alcotest.fail "feasible expected"
  | Retime.Feasible rho ->
    (* total on the loop q->g1->g2->q: find edges among {g1,g2} and the
       anchored register path *)
    Alcotest.(check int) "total register count preserved"
      (Rgraph.n_registers rg)
      (Retime.total_registers_after rg rho)

let test_apply_moves_initial_state () =
  (* forward move across the inverter: register value 0 becomes NOT 0 = 1 *)
  let rg = Rgraph.of_circuit (Parser.parse_string pipeline_src) in
  let g1 = vertex_of rg "g1" in
  let require e = if rg.Rgraph.edges.(e).Rgraph.tail = g1 then 2 else 0 in
  match Retime.solve rg ~require with
  | Retime.Infeasible _ -> Alcotest.fail "feasible expected"
  | Retime.Feasible rho ->
    let rg' = Retime.apply rg rho in
    (match Rgraph.check_invariants rg' with
     | Ok () -> ()
     | Error m -> Alcotest.fail m);
    Alcotest.(check int) "register count preserved"
      (Rgraph.n_registers rg) (Rgraph.n_registers rg');
    (* the moved register's value was justified through the inverter *)
    let moved =
      rg'.Rgraph.edges.(rg'.Rgraph.out_edges.(g1).(0)).Rgraph.inits
    in
    Alcotest.(check bool) "inverted init present" true
      (List.exists (fun v -> L.equal v L.One) moved)

let test_apply_illegal_rejected () =
  let rg = Rgraph.of_circuit (Parser.parse_string pipeline_src) in
  let rho = Array.make (Rgraph.n_vertices rg) 0 in
  rho.(vertex_of rg "g1") <- 100;
  Alcotest.check_raises "illegal" (Invalid_argument "Retime.apply: illegal retiming")
    (fun () -> ignore (Retime.apply rg rho))

(* The central correctness property: a retimed circuit with recomputed
   initial state is 3-valued compatible with the original on every output
   at every cycle. No latency compensation is needed: primary inputs and
   the host are pinned at lag 0, so Eq. 1 keeps the register count of
   every PI-to-PO path — the retimed machine is cycle-exact. *)
let cosimulate_compatible c require_of =
  let rg = Rgraph.of_circuit c in
  match Retime.solve rg ~require:(require_of rg) with
  | Retime.Infeasible _ -> true (* nothing to check *)
  | Retime.Feasible rho ->
    let rg' = Retime.apply rg rho in
    let cycles = 8 in
    let rng = Ppet_digraph.Prng.create 99L in
    let stim = Hashtbl.create 16 in
    let inputs ~cycle name =
      match Hashtbl.find_opt stim (cycle, name) with
      | Some v -> v
      | None ->
        let v = if Ppet_digraph.Prng.bool rng then L.One else L.Zero in
        Hashtbl.replace stim (cycle, name) v;
        v
    in
    let a = Rgraph.simulate rg ~inputs ~cycles in
    let b = Rgraph.simulate rg' ~inputs ~cycles in
    let ok = ref true in
    for t = 0 to cycles - 1 do
      List.iter
        (fun (name, v0) ->
          let v1 = List.assoc name b.(t) in
          if not (L.compatible v0 v1) then ok := false)
        a.(t)
    done;
    !ok

let test_cosim_pipeline () =
  let c = Parser.parse_string pipeline_src in
  let req rg e = if rg.Rgraph.edges.(e).Rgraph.tail = vertex_of rg "g1" then 1 else 0 in
  Alcotest.(check bool) "compatible" true
    (cosimulate_compatible c (fun rg e -> req rg e))

let test_cosim_ring () =
  let c = Parser.parse_string ring_src in
  let req rg e = if rg.Rgraph.edges.(e).Rgraph.tail = vertex_of rg "g2" then 1 else 0 in
  Alcotest.(check bool) "compatible" true
    (cosimulate_compatible c (fun rg e -> req rg e))

let test_cosim_s27 () =
  let c = Ppet_netlist.S27.circuit () in
  (* ask for a register at G8's output (a comb gate off the main loop) *)
  Alcotest.(check bool) "compatible" true
    (cosimulate_compatible c (fun rg e ->
         if Rgraph.vertex_name rg rg.Rgraph.edges.(e).Rgraph.tail = "G9" then 1
         else 0))

let prop_cosim_random =
  QCheck.Test.make ~name:"retiming preserves behaviour (random circuits)"
    ~count:20
    QCheck.(pair (int_bound 100_000) (int_bound 4))
    (fun (seed, pick) ->
      let c =
        Generator.small_random ~seed:(Int64.of_int (seed + 11)) ~n_pi:3
          ~n_dff:4 ~n_gates:15
      in
      let rg = Rgraph.of_circuit c in
      (* require a register at the output of some combinational vertices *)
      let targets =
        let acc = ref [] in
        for v = 0 to Rgraph.n_vertices rg - 1 do
          match rg.Rgraph.kinds.(v) with
          | Rgraph.Vgate _ -> acc := v :: !acc
          | Rgraph.Vpi _ | Rgraph.Vhost -> ()
        done;
        Array.of_list !acc
      in
      QCheck.assume (Array.length targets > 0);
      let chosen = targets.(pick mod Array.length targets) in
      cosimulate_compatible c (fun rg' e ->
          if
            Rgraph.vertex_name rg' rg'.Rgraph.edges.(e).Rgraph.tail
            = Rgraph.vertex_name rg chosen
          then 1
          else 0))

(* The relax-count cutoff on parallel arcs: g reads a through 6, 5, ..,
   0 registers, and requiring 7 on each of those edges gives g seven
   parallel constraint arcs to a, each shorter than the last, so one
   scan of g relaxes a more than n times before the predecessor forest
   holds a cycle. With a the input (test_backend's cutoff fixture) the
   system is infeasible and every entry point must name a genuine
   negative cycle; with a fed from the input through [lead] = 8
   registers it is feasible. *)
let parallel_src ~lead =
  let chain =
    List.init lead (fun i ->
        Printf.sprintf "r%d = DFF(%s)\n" (i + 1)
          (if i = 0 then "p" else Printf.sprintf "r%d" i))
  in
  (if lead = 0 then "INPUT(a)\n"
   else
     "INPUT(p)\n" ^ String.concat "" chain ^ Printf.sprintf "a = NOT(r%d)\n" lead)
  ^ "OUTPUT(g)\nq1 = DFF(a)\nq2 = DFF(q1)\nq3 = DFF(q2)\nq4 = DFF(q3)\n\
     q5 = DFF(q4)\nq6 = DFF(q5)\ng = AND(q6, q5, q4, q3, q2, q1, a)\n"

let parallel_fixture ~lead =
  let rg = Rgraph.of_circuit (Parser.parse_string (parallel_src ~lead)) in
  let a = vertex_of rg "a" in
  (rg, fun e -> if rg.Rgraph.edges.(e).Rgraph.tail = a then 7 else 0)

(* the summed length of a reported cycle, each vertex the predecessor
   of the next: per hop the shortest constraint arc (an edge read
   backwards, length weight - require, or a 0-length tie between pinned
   vertices) *)
let cycle_length rg require cycle =
  let pinned v =
    match rg.Rgraph.kinds.(v) with
    | Rgraph.Vpi _ | Rgraph.Vhost -> true
    | Rgraph.Vgate _ -> false
  in
  let hop x y =
    let best = ref (if x <> y && pinned x && pinned y then Some 0 else None) in
    Array.iteri
      (fun e (ed : Rgraph.edge) ->
        if ed.Rgraph.head = x && ed.Rgraph.tail = y then begin
          let l = ed.Rgraph.weight - require e in
          best := Some (match !best with Some b -> min b l | None -> l)
        end)
      rg.Rgraph.edges;
    match !best with
    | Some l -> l
    | None -> Alcotest.failf "no constraint arc %d -> %d" x y
  in
  match cycle with
  | [] -> Alcotest.fail "empty cycle"
  | first :: _ ->
    let rec go acc = function
      | [ last ] -> acc + hop last first
      | x :: (y :: _ as rest) -> go (acc + hop x y) rest
      | [] -> acc
    in
    go 0 cycle

let test_cutoff_parallel_arcs () =
  let rg, require = parallel_fixture ~lead:0 in
  let negative what cycle =
    Alcotest.(check bool) (what ^ ": negative cycle") true
      (cycle_length rg require cycle < 0)
  in
  (match Retime.solve rg ~require with
   | Retime.Infeasible cycle -> negative "solve" cycle
   | Retime.Feasible _ -> Alcotest.fail "solve: infeasible system solved");
  let s = Retime.Solver.create rg in
  (match Retime.Solver.run s ~require with
   | Retime.Infeasible cycle -> negative "run" cycle
   | Retime.Feasible _ -> Alcotest.fail "run: infeasible system solved");
  (match Retime.Solver.run_cycles s ~require with
   | Error [] -> Alcotest.fail "run_cycles: no cycle"
   | Error cycles -> List.iter (negative "run_cycles") cycles
   | Ok _ -> Alcotest.fail "run_cycles: infeasible system solved");
  let rg, require = parallel_fixture ~lead:8 in
  let meets what rho =
    Alcotest.(check bool) (what ^ ": legal") true (Retime.is_legal rg rho);
    Array.iteri
      (fun e _ ->
        if Retime.retimed_weight rg rho e < require e then
          Alcotest.failf "%s: edge %d misses its requirement" what e)
      rg.Rgraph.edges
  in
  (match Retime.solve rg ~require with
   | Retime.Feasible rho -> meets "solve" rho
   | Retime.Infeasible _ -> Alcotest.fail "solve: feasible system refused");
  let s = Retime.Solver.create rg in
  (match Retime.Solver.run s ~require with
   | Retime.Feasible rho -> meets "run" rho
   | Retime.Infeasible _ -> Alcotest.fail "run: feasible system refused");
  match Retime.Solver.run_cycles s ~require with
  | Ok rho -> meets "run_cycles" rho
  | Error _ -> Alcotest.fail "run_cycles: feasible system refused"

let suite =
  [
    Alcotest.test_case "identity feasible" `Quick test_identity_feasible;
    Alcotest.test_case "register moves forward" `Quick test_move_register_forward;
    Alcotest.test_case "loop budget enforced (Eq. 2)" `Quick test_loop_budget_respected;
    Alcotest.test_case "single loop cut feasible" `Quick test_loop_single_requirement_feasible;
    Alcotest.test_case "register count invariant" `Quick test_cycle_weight_invariant;
    Alcotest.test_case "apply recomputes state" `Quick test_apply_moves_initial_state;
    Alcotest.test_case "apply rejects illegal rho" `Quick test_apply_illegal_rejected;
    Alcotest.test_case "co-simulation: pipeline" `Quick test_cosim_pipeline;
    Alcotest.test_case "co-simulation: ring" `Quick test_cosim_ring;
    Alcotest.test_case "co-simulation: s27" `Quick test_cosim_s27;
    Alcotest.test_case "cutoff on parallel arcs" `Quick test_cutoff_parallel_arcs;
    QCheck_alcotest.to_alcotest prop_cosim_random;
  ]
