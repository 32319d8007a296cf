module Circuit = Ppet_netlist.Circuit
module Gate = Ppet_netlist.Gate
module S27 = Ppet_netlist.S27

let build_small () =
  let b = Circuit.Builder.create "small" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_output b "y";
  Circuit.Builder.add_gate b ~name:"y" ~kind:Gate.And ~fanins:[ "a"; "b" ];
  Circuit.Builder.finish b

let test_build_basics () =
  let c = build_small () in
  Alcotest.(check int) "size" 3 (Circuit.size c);
  Alcotest.(check int) "inputs" 2 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "outputs" 1 (Array.length c.Circuit.outputs);
  let y = Circuit.find c "y" in
  Alcotest.(check bool) "is po" true (Circuit.is_po c y);
  Alcotest.(check bool) "a not po" false (Circuit.is_po c (Circuit.find c "a"))

let test_forward_reference () =
  let b = Circuit.Builder.create "fwd" in
  Circuit.Builder.add_input b "a";
  (* g1 references g2 before definition, as ISCAS89 files do *)
  Circuit.Builder.add_gate b ~name:"g1" ~kind:Gate.Not ~fanins:[ "g2" ];
  Circuit.Builder.add_gate b ~name:"g2" ~kind:Gate.Not ~fanins:[ "a" ];
  let c = Circuit.Builder.finish b in
  let g1 = Circuit.node c (Circuit.find c "g1") in
  Alcotest.(check string) "resolved" "g2"
    (Circuit.node c g1.Circuit.fanins.(0)).Circuit.name

let test_duplicate_rejected () =
  let b = Circuit.Builder.create "dup" in
  Circuit.Builder.add_input b "a";
  Alcotest.check_raises "duplicate"
    (Circuit.Error "duplicate definition of signal \"a\"") (fun () ->
      Circuit.Builder.add_gate b ~name:"a" ~kind:Gate.Not ~fanins:[ "a" ])

let test_undefined_rejected () =
  let b = Circuit.Builder.create "undef" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~name:"g" ~kind:Gate.Not ~fanins:[ "nope" ];
  Alcotest.check_raises "undefined"
    (Circuit.Error "gate \"g\" references undefined signal \"nope\"")
    (fun () -> ignore (Circuit.Builder.finish b))

let test_arity_rejected () =
  let b = Circuit.Builder.create "arity" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~name:"g" ~kind:Gate.And ~fanins:[ "a" ];
  Alcotest.check_raises "arity" (Circuit.Error "gate \"g\": AND cannot take 1 inputs")
    (fun () -> ignore (Circuit.Builder.finish b))

let test_comb_cycle_rejected () =
  let b = Circuit.Builder.create "cycle" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~name:"g1" ~kind:Gate.And ~fanins:[ "a"; "g2" ];
  Circuit.Builder.add_gate b ~name:"g2" ~kind:Gate.Not ~fanins:[ "g1" ];
  Alcotest.(check bool) "raises" true
    (try
       ignore (Circuit.Builder.finish b);
       false
     with Circuit.Error _ -> true)

let test_dff_breaks_cycle () =
  let b = Circuit.Builder.create "seqcycle" in
  Circuit.Builder.add_gate b ~name:"q" ~kind:Gate.Dff ~fanins:[ "g" ];
  Circuit.Builder.add_gate b ~name:"g" ~kind:Gate.Not ~fanins:[ "q" ];
  let c = Circuit.Builder.finish b in
  Alcotest.(check int) "two nodes" 2 (Circuit.size c)

let test_empty_rejected () =
  let b = Circuit.Builder.create "empty" in
  Alcotest.check_raises "empty" (Circuit.Error "empty circuit \"empty\"") (fun () ->
      ignore (Circuit.Builder.finish b))

let test_no_sources_rejected () =
  let b = Circuit.Builder.create "nosrc" in
  Circuit.Builder.add_gate b ~name:"g" ~kind:Gate.And ~fanins:[ "g2"; "g2" ];
  Circuit.Builder.add_gate b ~name:"g2" ~kind:Gate.Not ~fanins:[ "g" ];
  Alcotest.(check bool) "raises" true
    (try
       ignore (Circuit.Builder.finish b);
       false
     with Circuit.Error _ -> true)

let test_fanouts () =
  let c = build_small () in
  let a = Circuit.find c "a" and y = Circuit.find c "y" in
  Alcotest.(check (array int)) "a feeds y" [| y |] c.Circuit.fanouts.(a);
  Alcotest.(check (array int)) "y feeds nothing" [||] c.Circuit.fanouts.(y)

let test_s27_shape () =
  let c = S27.circuit () in
  Alcotest.(check int) "size" 17 (Circuit.size c);
  Alcotest.(check int) "pis" 4 (Array.length c.Circuit.inputs);
  Alcotest.(check int) "dffs" 3 (Array.length (Circuit.dffs c));
  Alcotest.(check int) "combs" 10 (Array.length (Circuit.combinational c));
  Alcotest.(check int) "pos" 1 (Array.length c.Circuit.outputs)

let test_s27_area () =
  (* 2 INV (1) + 1 AND2 (3) + 2 OR2 (3) + 1 NAND2 (2) + 4 NOR2 (2) + 3 DFF (10) *)
  Alcotest.(check (float 1e-9)) "area" 51.0 (Circuit.area (S27.circuit ()))

let test_levels () =
  let c = S27.circuit () in
  let lv = Circuit.levels c in
  Alcotest.(check int) "PI level" 0 lv.(Circuit.find c "G0");
  Alcotest.(check int) "DFF level" 0 lv.(Circuit.find c "G5");
  Alcotest.(check int) "G14 = NOT(G0)" 1 lv.(Circuit.find c "G14");
  Alcotest.(check int) "G8 = AND(G14,G6)" 2 lv.(Circuit.find c "G8")

let test_find_missing () =
  let c = build_small () in
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Circuit.find c "zz"))

(* ------------------------------------------------------------------ *)
(* The by-id constructor: one test per input it rejects, each with its
   message, and agreement with the Builder on a well-formed netlist. *)

let nd id name kind fanins = { Circuit.id; name; kind; fanins }

let rejects msg nodes outputs =
  Alcotest.check_raises msg (Circuit.Error msg) (fun () ->
      ignore (Circuit.of_nodes ~title:"t" nodes ~outputs))

let test_of_nodes_empty () = rejects "empty circuit \"t\"" [||] [||]

let test_of_nodes_position () =
  rejects "signal \"b\": id 0 at position 1"
    [| nd 0 "a" Gate.Input [||]; nd 0 "b" Gate.Input [||] |]
    [||]

let test_of_nodes_duplicate () =
  rejects "duplicate definition of signal \"a\""
    [| nd 0 "a" Gate.Input [||]; nd 1 "a" Gate.Not [| 0 |] |]
    [||]

let test_of_nodes_undefined () =
  rejects "gate \"g\" references undefined signal #5"
    [| nd 0 "a" Gate.Input [||]; nd 1 "g" Gate.Not [| 5 |] |]
    [||]

let test_of_nodes_arity () =
  rejects "gate \"g\": AND cannot take 1 inputs"
    [| nd 0 "a" Gate.Input [||]; nd 1 "g" Gate.And [| 0 |] |]
    [||]

let test_of_nodes_input_fanin () =
  rejects "gate \"b\": INPUT cannot take 1 inputs"
    [| nd 0 "a" Gate.Input [||]; nd 1 "b" Gate.Input [| 0 |] |]
    [||]

let test_of_nodes_no_sources () =
  rejects "circuit \"t\" has neither primary inputs nor flip-flops"
    [| nd 0 "g" Gate.And [| 1; 1 |]; nd 1 "g2" Gate.Not [| 0 |] |]
    [||]

let test_of_nodes_output () =
  rejects "primary output list references undefined signal #-1"
    [| nd 0 "a" Gate.Input [||]; nd 1 "g" Gate.Not [| 0 |] |]
    [| 1; -1 |]

let test_of_nodes_cycle () =
  rejects "combinational cycle through signal \"g1\""
    [| nd 0 "a" Gate.Input [||]; nd 1 "g1" Gate.And [| 0; 2 |];
       nd 2 "g2" Gate.Not [| 1 |] |]
    [||]

let test_of_nodes_matches_builder () =
  let c = S27.circuit () in
  let c' =
    Circuit.of_nodes ~title:c.Circuit.title c.Circuit.nodes ~outputs:c.Circuit.outputs
  in
  Alcotest.(check bool) "same circuit, field for field" true (c = c')

(* The name index agrees with the scan on every signal, and on a name
   no signal has. *)
let test_name_index () =
  List.iter
    (fun c ->
      let find = Circuit.name_index c in
      Array.iter
        (fun (n : Circuit.node) ->
          Alcotest.(check (option int)) n.Circuit.name
            (Some (Circuit.find c n.Circuit.name)) (find n.Circuit.name))
        c.Circuit.nodes;
      Alcotest.(check (option int)) "missing" None (find "no such signal"))
    [ S27.circuit (); Ppet_netlist.Benchmarks.circuit "s641" ]

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_build_basics;
    Alcotest.test_case "forward references" `Quick test_forward_reference;
    Alcotest.test_case "duplicate signal rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "undefined signal rejected" `Quick test_undefined_rejected;
    Alcotest.test_case "illegal arity rejected" `Quick test_arity_rejected;
    Alcotest.test_case "combinational cycle rejected" `Quick test_comb_cycle_rejected;
    Alcotest.test_case "DFF breaks cycles" `Quick test_dff_breaks_cycle;
    Alcotest.test_case "empty circuit rejected" `Quick test_empty_rejected;
    Alcotest.test_case "sourceless circuit rejected" `Quick test_no_sources_rejected;
    Alcotest.test_case "fanout index" `Quick test_fanouts;
    Alcotest.test_case "s27 shape" `Quick test_s27_shape;
    Alcotest.test_case "s27 estimated area" `Quick test_s27_area;
    Alcotest.test_case "levelization" `Quick test_levels;
    Alcotest.test_case "find raises Not_found" `Quick test_find_missing;
    Alcotest.test_case "of_nodes rejects no nodes" `Quick test_of_nodes_empty;
    Alcotest.test_case "of_nodes rejects a misplaced id" `Quick test_of_nodes_position;
    Alcotest.test_case "of_nodes rejects a duplicate name" `Quick test_of_nodes_duplicate;
    Alcotest.test_case "of_nodes rejects an undefined fanin" `Quick test_of_nodes_undefined;
    Alcotest.test_case "of_nodes rejects an illegal arity" `Quick test_of_nodes_arity;
    Alcotest.test_case "of_nodes rejects an input with fanins" `Quick
      test_of_nodes_input_fanin;
    Alcotest.test_case "of_nodes rejects a sourceless circuit" `Quick
      test_of_nodes_no_sources;
    Alcotest.test_case "of_nodes rejects an undefined output" `Quick test_of_nodes_output;
    Alcotest.test_case "of_nodes rejects a combinational cycle" `Quick test_of_nodes_cycle;
    Alcotest.test_case "of_nodes rebuilds s27 exactly" `Quick test_of_nodes_matches_builder;
    Alcotest.test_case "name index = find (s27, s641)" `Quick test_name_index;
  ]
