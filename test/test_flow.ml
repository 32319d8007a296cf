module Flow = Ppet_core.Flow
module Params = Ppet_core.Params
module Netgraph = Ppet_digraph.Netgraph
module Prng = Ppet_digraph.Prng
module To_graph = Ppet_netlist.To_graph
module S27 = Ppet_netlist.S27
module Csr = Ppet_digraph.Csr
module Generator = Ppet_netlist.Generator
module Benchmarks = Ppet_netlist.Benchmarks
module Obs = Ppet_obs.Obs

let params = { Params.default with Params.l_k = 3 }

let s27_csr () = Csr.of_netgraph (To_graph.partition_view (S27.circuit ()))

let test_all_visited () =
  let r = Flow.saturate (s27_csr ()) params (Prng.create 1L) in
  Array.iteri
    (fun v n ->
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d visited" v)
        true
        (n > params.Params.min_visit))
    r.Flow.visits

let test_distances_positive () =
  let r = Flow.saturate (s27_csr ()) params (Prng.create 1L) in
  Array.iter
    (fun d -> Alcotest.(check bool) "d >= 1" true (d >= 1.0))
    r.Flow.distance

let test_deterministic () =
  let csr = s27_csr () in
  let a = Flow.saturate csr params (Prng.create 7L) in
  let b = Flow.saturate csr params (Prng.create 7L) in
  Alcotest.(check bool) "same distances" true (a.Flow.distance = b.Flow.distance);
  let c = Flow.saturate csr params (Prng.create 8L) in
  Alcotest.(check bool) "different seed differs" true (a.Flow.distance <> c.Flow.distance)

let test_distance_flow_relation () =
  let r = Flow.saturate (s27_csr ()) params (Prng.create 3L) in
  Array.iteri
    (fun e f ->
      let expect = exp (params.Params.alpha *. f /. params.Params.capacity) in
      Alcotest.(check (float 1e-9)) "d = exp(alpha f / b)" expect r.Flow.distance.(e))
    r.Flow.flow

let test_scc_nets_congested () =
  (* the paper's Fig. 5 observation: loop nets absorb more flow *)
  let c = S27.circuit () in
  let g = To_graph.partition_view c in
  let sb = Ppet_retiming.Scc_budget.create c g in
  let r = Flow.saturate (Csr.of_netgraph g) params (Prng.create 5L) in
  let loop_flow = ref 0.0 and loop_n = ref 0 in
  let other_flow = ref 0.0 and other_n = ref 0 in
  for e = 0 to Netgraph.n_nets g - 1 do
    match Ppet_retiming.Scc_budget.net_scc sb e with
    | Some _ ->
      loop_flow := !loop_flow +. r.Flow.flow.(e);
      incr loop_n
    | None ->
      other_flow := !other_flow +. r.Flow.flow.(e);
      incr other_n
  done;
  let avg_loop = !loop_flow /. float_of_int !loop_n in
  let avg_other = !other_flow /. float_of_int !other_n in
  Alcotest.(check bool) "loops more congested" true (avg_loop > avg_other)

let test_boundaries_sorted () =
  let r = Flow.saturate (s27_csr ()) params (Prng.create 1L) in
  let bs = Flow.boundaries r in
  let rec descending = function
    | a :: (b :: _ as tl) -> a > b && descending tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly descending" true (descending bs);
  Alcotest.(check bool) "non-empty" true (bs <> [])

let test_max_iterations_cap () =
  let p = { params with Params.max_iterations = 3 } in
  let r = Flow.saturate (s27_csr ()) p (Prng.create 1L) in
  Alcotest.(check int) "capped" 3 r.Flow.iterations

let test_empty_graph () =
  let csr = Csr.of_netgraph (Netgraph.create 0) in
  let r = Flow.saturate csr params (Prng.create 1L) in
  Alcotest.(check int) "no iterations" 0 r.Flow.iterations

let test_invalid_params () =
  let p = { params with Params.delta = -1.0 } in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Flow.saturate (s27_csr ()) p (Prng.create 1L));
       false
     with Invalid_argument _ -> true)

(* Flow.saturate (flat Dijkstra kernel, hit-count tables) against the
   hashed oracle (Netgraph, Heap, per-net exp): every bit of every net's
   distance and flow, every visit count, the tree count, and the
   settled, tree-net and decrease-key counters, which are equal only if
   both made the same heap operations. Each flow starts with all
   distances at 1.0, so ties decide the early trees. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* [f ()] under a fresh trace, with the totals of the flow counters *)
let flow_counters f =
  let tr = Obs.create () in
  let r = Obs.with_installed tr f in
  let total m =
    List.fold_left
      (fun acc ev ->
        match ev with Obs.Count c when c.metric = m -> acc + c.value | _ -> acc)
      0 (Obs.events tr)
  in
  (r, Obs.Metric.(total Flow_settled, total Flow_tree_nets, total Flow_decreases))

let csr_matches_hashed ?(p = params) c seed =
  let g = To_graph.partition_view c in
  let flat, flat_counts =
    flow_counters (fun () ->
        Flow.saturate (Csr.of_netgraph g) p (Prng.create seed))
  in
  let hashed, hashed_counts =
    flow_counters (fun () -> Hashed_oracle.saturate g p (Prng.create seed))
  in
  same_bits flat.Flow.distance hashed.Flow.distance
  && same_bits flat.Flow.flow hashed.Flow.flow
  && flat.Flow.visits = hashed.Flow.visits
  && flat.Flow.iterations = hashed.Flow.iterations
  && flat_counts = hashed_counts

let test_csr_matches_hashed_fixed () =
  Alcotest.(check bool) "s27" true (csr_matches_hashed (S27.circuit ()) 1L);
  Alcotest.(check bool) "s641" true
    (csr_matches_hashed ~p:Params.default (Benchmarks.circuit "s641") 5L)

let prop_csr_matches_hashed =
  QCheck.Test.make ~name:"csr flow = hashed flow, bit for bit" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let c =
        Generator.small_random ~seed:(Int64.of_int seed) ~n_pi:(3 + (seed mod 5))
          ~n_dff:(2 + (seed mod 7)) ~n_gates:(20 + (seed mod 50))
      in
      csr_matches_hashed c (Int64.of_int (seed * 7)))

(* Allocation guard: one saturation of s5378 allocates a fixed handful
   of small blocks, however many trees it injects (~1500 here, at the
   paper's sampling budget). *)
let test_csr_allocation () =
  let g = To_graph.partition_view (Benchmarks.circuit "s5378") in
  let csr = Csr.of_netgraph g in
  let p = Params.paper in
  let rng = Prng.create p.Params.seed in
  let before = Gc.minor_words () in
  let r = Flow.saturate csr p rng in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%d trees allocate %.0f minor words (bound 4096)"
       r.Flow.iterations words)
    true (words < 4096.)

(* Flow on heaps of hundreds of entries, which the small circuits above
   never build. Each digest covers the bits of every distance and flow
   and every visit count; it, the tree count and [flow.settled] were
   recorded before the kernel's pop went bottom-up, and
   [flow.decreases] from the hashed oracle (textbook [Heap]), which
   must still agree with all of them. They run at the paper's
   settings, at which they were recorded. *)
let flow_digest (r : Flow.result) =
  let b = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) r.Flow.distance;
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) r.Flow.flow;
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) r.Flow.visits;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_csr_pinned () =
  List.iter
    (fun (name, digest, iterations, settled, decreases) ->
      let g = To_graph.partition_view (Benchmarks.circuit name) in
      let p = Params.paper in
      let r, (got_settled, _, got_decreases) =
        flow_counters (fun () ->
            Flow.saturate (Csr.of_netgraph g) p (Prng.create p.Params.seed))
      in
      Alcotest.(check string) (name ^ " digest") digest (flow_digest r);
      Alcotest.(check int) (name ^ " trees") iterations r.Flow.iterations;
      Alcotest.(check int) (name ^ " flow.settled") settled got_settled;
      Alcotest.(check int) (name ^ " flow.decreases") decreases got_decreases;
      let oracle, (o_settled, _, o_decreases) =
        flow_counters (fun () ->
            Hashed_oracle.saturate g p (Prng.create p.Params.seed))
      in
      Alcotest.(check string) (name ^ " oracle digest") digest (flow_digest oracle);
      Alcotest.(check int) (name ^ " oracle flow.settled") settled o_settled;
      Alcotest.(check int) (name ^ " oracle flow.decreases") decreases o_decreases)
    [
      ("s5378", "f985b0fe6dfbe43fe0fd9c9685698fe0", 1517, 2111382, 33106);
      ("s9234.1", "4b8305126e42c760f94761aff17de917", 1529, 4503840, 83686);
    ]

(* A vertex without in-nets is visited only by the trees it roots, so
   [flow.inputless_trees] is those vertices' visit total, and sampling
   stops each of them at [min_visit + 1]. *)
let test_inputless_trees () =
  List.iter
    (fun (name, c) ->
      let csr = Csr.of_netgraph (To_graph.partition_view c) in
      List.iter
        (fun p ->
          let tr = Obs.create () in
          let r =
            Obs.with_installed tr (fun () ->
                Flow.saturate csr p (Prng.create p.Params.seed))
          in
          let counted =
            List.fold_left
              (fun acc -> function
                | Obs.Count { metric = Obs.Metric.Flow_inputless_trees; value; _ } ->
                  acc + value
                | _ -> acc)
              0 (Obs.events tr)
          in
          let roots = ref 0 and root_visits = ref 0 in
          Array.iteri
            (fun v n ->
              if Csr.in_degree csr v = 0 then begin
                incr roots;
                root_visits := !root_visits + n
              end)
            r.Flow.visits;
          let label = Printf.sprintf "%s min_visit %d" name p.Params.min_visit in
          Alcotest.(check int) (label ^ ": visits of in-net-free vertices")
            !root_visits counted;
          Alcotest.(check int) (label ^ ": min_visit + 1 trees each")
            ((p.Params.min_visit + 1) * !roots) counted)
        [ Params.paper; Params.default ])
    [ ("s27", S27.circuit ()); ("s5378", Benchmarks.circuit "s5378") ]

let suite =
  [
    Alcotest.test_case "every vertex sampled" `Quick test_all_visited;
    Alcotest.test_case "distances at least 1" `Quick test_distances_positive;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "distance = exp(alpha f/b)" `Quick test_distance_flow_relation;
    Alcotest.test_case "SCC nets congested (Fig. 5)" `Quick test_scc_nets_congested;
    Alcotest.test_case "boundary stack sorted" `Quick test_boundaries_sorted;
    Alcotest.test_case "iteration cap" `Quick test_max_iterations_cap;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "invalid params rejected" `Quick test_invalid_params;
    Alcotest.test_case "csr = hashed on s27 and s641" `Quick
      test_csr_matches_hashed_fixed;
    QCheck_alcotest.to_alcotest prop_csr_matches_hashed;
    Alcotest.test_case "csr saturation allocation (s5378)" `Quick
      test_csr_allocation;
    Alcotest.test_case "csr flow pinned (s5378, s9234.1 at l_k 16)" `Quick
      test_csr_pinned;
    Alcotest.test_case "flow.inputless_trees counts PI-rooted trees" `Quick
      test_inputless_trees;
  ]
