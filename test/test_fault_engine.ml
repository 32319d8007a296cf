(* The batch engine must be bit-identical to the seed serial loop in
   Fault_sim — on any circuit, any pattern set, at every word width,
   job count, and dropping policy — and its closed-form exhaustive
   source must be the packed list of all vectors, word for word. *)

module Circuit = Ppet_netlist.Circuit
module Segment = Ppet_netlist.Segment
module Generator = Ppet_netlist.Generator
module Fault = Ppet_bist.Fault
module Fault_sim = Ppet_bist.Fault_sim
module Fault_engine = Ppet_bist.Fault_engine
module Batch = Ppet_bist.Fault_engine.Batch
module Simulator = Ppet_bist.Simulator
module Domain_pool = Ppet_parallel.Domain_pool
module Prng = Ppet_digraph.Prng
module Parser = Ppet_netlist.Bench_parser

(* random sequential circuit, segment = all its combinational gates,
   random word batches as patterns *)
let random_case seed =
  let rng = Prng.create (Int64.of_int (seed + 11)) in
  let c =
    Generator.small_random
      ~seed:(Int64.of_int ((seed * 7) + 1))
      ~n_pi:(2 + Prng.int rng 4) ~n_dff:(Prng.int rng 3)
      ~n_gates:(4 + Prng.int rng 14)
  in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let faults = Fault.of_segment c seg in
  let n_in = Array.length (Segment.input_signals seg) in
  let word () =
    Int64.to_int (Int64.logand (Prng.next_int64 rng) (Int64.of_int max_int))
  in
  let patterns =
    List.init (1 + Prng.int rng 3) (fun _ -> Array.init n_in (fun _ -> word ()))
  in
  (c, seg, faults, patterns)

(* the full policy matrix against the seed oracle: words 1/4/8/32, jobs
   1/2/4, dropping on and off — all must agree verdict for verdict, for
   the random batches and for the exhaustive source (whose oracle input
   is the packed list of every vector) *)
let prop_batch_matches_seed =
  QCheck.Test.make ~name:"Batch.run = seed at words 1/4/8/32 x jobs 1/2/4 x drop"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, seg, faults, patterns = random_case seed in
      let sim = Simulator.create c in
      let engine = Fault_engine.create sim seg in
      let width = Array.length (Segment.input_signals seg) in
      let sources =
        [
          (Batch.Batches patterns, patterns);
          (Batch.Exhaustive, Pattern_oracle.exhaustive_patterns ~width);
        ]
      in
      let check pool (source, oracle_patterns) =
        let expected =
          Fault_sim.segment_detects sim seg ~patterns:oracle_patterns faults
        in
        List.for_all
          (fun words ->
            List.for_all
              (fun drop ->
                let policy =
                  Batch.policy ~words ?pool ~drop ~cutover:1 ()
                in
                let o = Batch.run engine policy ~patterns:source faults in
                o.Batch.results = expected
                && o.Batch.n_faults = List.length faults
                && o.Batch.n_detected
                   = List.length (List.filter snd expected)
                && o.Batch.batches = List.length oracle_patterns)
              [ Batch.Keep; Batch.Drop ])
          [ 1; 4; 8; 32 ]
      in
      List.for_all (check None) sources
      && List.for_all
           (fun jobs ->
             Domain_pool.with_pool ~jobs (fun p ->
                 List.for_all (check (Some p)) sources))
           [ 2; 4 ])

(* dropping can only remove work, never change verdicts *)
let prop_drop_saves_work =
  QCheck.Test.make ~name:"Drop does at most Keep's word evals" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, seg, faults, patterns = random_case seed in
      let sim = Simulator.create c in
      let engine = Fault_engine.create sim seg in
      let run drop =
        Batch.run engine
          (Batch.policy ~words:4 ~drop ())
          ~patterns:(Batch.Batches patterns) faults
      in
      let keep = run Batch.Keep and drop = run Batch.Drop in
      keep.Batch.results = drop.Batch.results
      && drop.Batch.word_evals <= keep.Batch.word_evals)

(* a fault whose fanout cone reaches no observed signal: undetected,
   not a crash (the event-driven walk just runs dry) *)
let test_cone_misses_observed () =
  let c =
    Parser.parse_string
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nd = NAND(a, b)\n"
  in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let d = Circuit.find c "d" in
  Alcotest.(check bool) "d is a member, not observed" true
    (Segment.mem seg d
    && not (Array.exists (fun o -> o = d) seg.Segment.observed));
  let faults =
    [
      { Fault.site = Fault.Output d; stuck_at = true };
      { Fault.site = Fault.Output d; stuck_at = false };
      { Fault.site = Fault.Input_pin (d, 0); stuck_at = true };
    ]
  in
  let patterns = Pattern_oracle.exhaustive_patterns ~width:2 in
  List.iter
    (fun words ->
      let o =
        Batch.run_segment (Batch.policy ~words ()) sim seg
          ~patterns:Batch.Exhaustive faults
      in
      List.iter
        (fun (_, det) -> Alcotest.(check bool) "unobservable" false det)
        o.Batch.results;
      Alcotest.(check bool) "matches seed" true
        (o.Batch.results = Fault_sim.segment_detects sim seg ~patterns faults))
    [ 1; 8 ]

let test_full_coverage_and_gate () =
  let c = Parser.parse_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n" in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let faults = Fault.of_segment c seg in
  let o =
    Batch.run_segment (Batch.policy ()) sim seg ~patterns:Batch.Exhaustive
      faults
  in
  Alcotest.(check bool) "all detected" true (List.for_all snd o.Batch.results);
  Alcotest.(check (float 1e-9)) "coverage 1" 1.0 o.Batch.coverage

let test_no_patterns_all_undetected () =
  let c = Parser.parse_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n" in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let faults = Fault.of_segment c seg in
  let o =
    Batch.run_segment (Batch.policy ()) sim seg ~patterns:(Batch.Batches [])
      faults
  in
  Alcotest.(check bool) "none detected" true
    (List.for_all (fun (_, d) -> not d) o.Batch.results);
  Alcotest.(check int) "no batches" 0 o.Batch.batches;
  Alcotest.(check int) "no work" 0 o.Batch.word_evals

let test_dff_member_rejected () =
  let c = Parser.parse_string "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n" in
  let sim = Simulator.create c in
  let seg = Segment.of_members c [| Circuit.find c "q" |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fault_engine.create sim seg);
       false
     with Invalid_argument _ -> true)

let test_batch_arity_guard () =
  let c = Parser.parse_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n" in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  Alcotest.check_raises "arity"
    (Invalid_argument "Fault_engine.Batch.run: batch arity mismatch")
    (fun () ->
      ignore
        (Batch.run_segment (Batch.policy ()) sim seg
           ~patterns:(Batch.Batches [ [| 1 |] ])
           []))

let test_bad_policy_rejected () =
  let c = Parser.parse_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n" in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let run policy =
    ignore (Batch.run_segment policy sim seg ~patterns:(Batch.Batches []) [])
  in
  Alcotest.check_raises "words"
    (Invalid_argument "Fault_engine.Batch.run: words must be >= 1")
    (fun () -> run { (Batch.policy ()) with Batch.words = 0 });
  Alcotest.check_raises "cutover"
    (Invalid_argument "Fault_engine.Batch.run: cutover must be >= 1")
    (fun () -> run { (Batch.policy ()) with Batch.cutover = 0 })

(* --- the exhaustive source ---------------------------------------- *)

(* the closed form against the packed list of every vector: every width
   the engine accepts, every batch (the last one ragged), every input *)
let test_exhaustive_closed_form () =
  for width = 0 to Fault_engine.max_exhaustive_width do
    let oracle = Pattern_oracle.exhaustive_patterns ~width in
    Alcotest.(check int)
      (Printf.sprintf "width %d: batch count" width)
      (List.length oracle)
      (Fault_engine.exhaustive_batches ~width);
    List.iteri
      (fun batch words ->
        Array.iteri
          (fun i expected ->
            let got = Fault_engine.exhaustive_word ~width ~batch i in
            if got <> expected then
              Alcotest.failf "width %d, batch %d, input %d: %#x, expected %#x"
                width batch i got expected)
          words)
      oracle
  done

let and_or_circuit n =
  let xs = List.init n (Printf.sprintf "x%d") in
  let decl = String.concat "" (List.map (Printf.sprintf "INPUT(%s)\n") xs) in
  let args = String.concat ", " xs in
  Parser.parse_string
    (Printf.sprintf "%sOUTPUT(y)\nOUTPUT(z)\ny = AND(%s)\nz = OR(%s)\n" decl
       args args)

(* The CI guard against rebuilding pattern lists: a 20-input AND keeps
   its output stuck-at-0 fault alive until the very last vector, so even
   under Drop the run walks all 16 913 batches. Computed word by word,
   that costs a few thousand minor words (faults, verdicts, scratch);
   2^20 listed vectors would cost millions. Minor-word counts repeat
   exactly on the serial path, so the bound is not a timing check. *)
let test_exhaustive_allocation () =
  let c = and_or_circuit 20 in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  let engine = Fault_engine.create sim seg in
  let faults = Fault.of_segment c seg in
  let before = Gc.minor_words () in
  let o =
    Batch.run engine (Batch.policy ()) ~patterns:Batch.Exhaustive faults
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all batches offered"
    (Fault_engine.exhaustive_batches ~width:20) o.Batch.batches;
  Alcotest.(check bool) "every fault detected" true
    (List.for_all snd o.Batch.results);
  if words >= 65536.0 then
    Alcotest.failf "Batch.run allocated %.0f minor words (bound 65536)" words

let test_exhaustive_width_cap () =
  let c = and_or_circuit 21 in
  let sim = Simulator.create c in
  let seg = Segment.of_members c (Circuit.combinational c) in
  Alcotest.check_raises "width 21"
    (Invalid_argument
       "Fault_engine.Batch.run: exhaustive width must be at most 20")
    (fun () ->
      ignore
        (Batch.run_segment (Batch.policy ()) sim seg ~patterns:Batch.Exhaustive
           []))

(* --- pack_vectors: the single-pass chunker vs the old take-based one *)

let old_pack ~width vectors =
  let bpw = Ppet_netlist.Gate.bits_per_word in
  let rec batches vs acc =
    match vs with
    | [] -> List.rev acc
    | _ ->
      let rec take k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: tl ->
            let got, rest = take (k - 1) tl in
            (x :: got, rest)
      in
      let chunk, rest = take bpw vs in
      let words = Array.make width 0 in
      List.iteri
        (fun b vector ->
          for i = 0 to width - 1 do
            if (vector lsr i) land 1 = 1 then words.(i) <- words.(i) lor (1 lsl b)
          done)
        chunk;
      batches rest (words :: acc)
  in
  batches vectors []

let prop_pack_vectors =
  QCheck.Test.make ~name:"single-pass pack_vectors = take-based packing"
    ~count:300
    QCheck.(
      pair (int_range 1 24)
        (list_of_size Gen.(0 -- 200) (int_bound ((1 lsl 24) - 1))))
    (fun (width, vectors) ->
      Fault_engine.pack_vectors ~width vectors = old_pack ~width vectors)

let test_pack_ragged_final_chunk () =
  (* 63 vectors on width 3: one full 62-bit batch plus a 1-bit tail *)
  let vectors = List.init 63 (fun i -> i land 7) in
  match Fault_engine.pack_vectors ~width:3 vectors with
  | [ full; tail ] ->
    Alcotest.(check int) "full batch wide" 3 (Array.length full);
    (* tail holds only vector 62 = 6 = 0b110 in bit 0 of each word *)
    Alcotest.(check (array int)) "ragged tail" [| 0; 1; 1 |] tail
  | l -> Alcotest.failf "expected 2 batches, got %d" (List.length l)

(* Exact work counts of the bench guard's fault workload at one word
   per gate visit: the gate-word evaluations and the detected count
   under both dropping policies. They were recorded on the separate
   single-word kernel this engine no longer has, and they do not move
   with host load, so any extra evaluation fails here. *)
let test_word_evals_pinned () =
  List.iter
    (fun (name, n_faults, n_detected, keep_evals, drop_evals) ->
      let c = Ppet_netlist.Benchmarks.circuit name in
      match Ppet_core.Bench_runner.fault_workload c (Simulator.create c) with
      | None -> Alcotest.failf "%s: no fault workload" name
      | Some (engine, patterns, faults) ->
        List.iter
          (fun (drop, label, evals) ->
            let o =
              Batch.run engine (Batch.policy ~words:1 ~drop ()) ~patterns faults
            in
            let what field = Printf.sprintf "%s %s: %s" name label field in
            Alcotest.(check int) (what "faults") n_faults o.Batch.n_faults;
            Alcotest.(check int) (what "detected") n_detected o.Batch.n_detected;
            Alcotest.(check int) (what "word_evals") evals o.Batch.word_evals)
          [ (Batch.Keep, "keep", keep_evals); (Batch.Drop, "drop", drop_evals) ])
    [ ("s641", 1134, 413, 42_272, 23_424); ("s5378", 1366, 846, 48_739, 19_047) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_batch_matches_seed;
    QCheck_alcotest.to_alcotest prop_drop_saves_work;
    Alcotest.test_case "cone missing observed = undetected" `Quick
      test_cone_misses_observed;
    Alcotest.test_case "AND gate full coverage" `Quick
      test_full_coverage_and_gate;
    Alcotest.test_case "no patterns = no detections" `Quick
      test_no_patterns_all_undetected;
    Alcotest.test_case "DFF member rejected" `Quick test_dff_member_rejected;
    Alcotest.test_case "batch arity guard" `Quick test_batch_arity_guard;
    Alcotest.test_case "bad policy rejected" `Quick test_bad_policy_rejected;
    QCheck_alcotest.to_alcotest prop_pack_vectors;
    Alcotest.test_case "pack_vectors ragged final chunk" `Quick
      test_pack_ragged_final_chunk;
    Alcotest.test_case "exhaustive closed form = packed list" `Quick
      test_exhaustive_closed_form;
    Alcotest.test_case "exhaustive run allocates no pattern list" `Quick
      test_exhaustive_allocation;
    Alcotest.test_case "exhaustive width cap" `Quick test_exhaustive_width_cap;
    Alcotest.test_case "word_evals pinned at words 1 (guard workload)" `Quick
      test_word_evals_pinned;
  ]
